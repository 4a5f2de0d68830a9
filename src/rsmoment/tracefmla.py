"""Kloosterman sums and the Petersson trace-formula right-hand side.

Rational Kloosterman sums are complete exponential sums over (Z/c)^x; the
number-field version runs over a residue system of (O_F/(c))^x with the
additive character twisted through a totally positive generator of the
different.  With narrow class number 1 every ideal in the formula is
principal, so all data is element-level: the residue system is an explicit
Hermite-form coordinate box.  Every modular inverse, of either degree, is
read from one integer table per modulus, ``_inverse_table``: a unit x of
O/(c) has inverse conj(y) N(y)^-1 for a shift y of x by a multiple of c
whose norm is a unit mod N(c).  As a function of its first slot a
Kloosterman sum is a Fourier transform over the residue box, so one kernel,
``_box_sums``, gives a modulus's sums at every first slot by one inverse FFT:
``kloosterman_row`` over Z/c, stored per (n mod c, c) and read by
``kloosterman_q``, and ``_kl_nf_slots``, every phase an integer form over
den = |N(delta c)|.  The Petersson sides call them once per modulus.

The degree-1 right-hand side folds the sum over c in Z \\ {0} to c >= 1
(a factor 2); the degree-2 side folds the full unit group action into one
canonical generator per ideal, a totally positive unit sum, and a factor 2
for the sign.  Its geometry, the canonical moduli and the units with their
float embeddings, is stored per field and bound, and one helper,
``_translate_tail``, bounds every sum over unit translates past a cut.  All
truncations carry certified tails from the J-Bessel series bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numfield import (FieldDescriptor, FieldElement, embed_float,
                       is_totally_positive, norm, totally_positive_units)
from .series import memo, prime_divisors
from .specialfn import bessel_j_array, bessel_j_c_tail_bound, bessel_j_series_bound
from .rankin import UncertifiedError

__all__ = [
    "kloosterman_q",
    "kloosterman_row",
    "KloostermanQuery",
    "kloosterman_nf",
    "petersson_rhs_q",
    "TraceRHSParams",
    "petersson_rhs_nf",
    "unit_sum_tail",
    "CertValue",
]


@dataclass(frozen=True)
class CertValue:
    """A truncated sum together with its certified tail bound."""

    value: float
    certificate: float

    def __float__(self):
        return self.value


# -- rational Kloosterman sums ---------------------------------------------

def _inverse_table(c: int) -> np.ndarray:
    """x^-1 mod c for every residue x, -1 where x is not a unit (int64): the
    module's one modular inverse."""
    def build():
        # Euler: x^(phi(c) - 1) inverts every unit x; products stay below c^2
        phi = c
        for p in prime_divisors(c):
            phi = phi // p * (p - 1)
        xs = np.arange(c, dtype=np.int64)
        out, base, e = np.full(c, 1 % c, dtype=np.int64), xs, phi - 1
        while e:
            if e & 1:
                out = out * base % c
            base = base * base % c
            e >>= 1
        return np.where(np.gcd(xs, c) == 1, out, -1)
    return memo(("inverse table", c), build)


def _box_sums(h11: int, h22: int, x1, x2, phase, den: int, forms) -> np.ndarray:
    """Sum over the residues (x1, x2) of the box [0, h11) x [0, h22) of
    e((f1 x1 + f2 x2 + phase)/den), for every row (f1, f2) of ``forms``: the
    one kernel of the Kloosterman sums of both degrees.  Forms and phases are
    integers in [0, den).

    Each form is a character of the ring whose residues fill the box, and
    (h11, 0) lies in its ideal, so den divides f1 h11: a form reads frequency
    k1 = f1 h11/den of one inverse FFT along x1, then sums over x2 directly.
    """
    grid = np.zeros((h22, h11), dtype=complex)
    grid[x2, x1] = np.exp((2j * math.pi / den) * phase)
    cols = h11 * np.fft.ifft(grid, axis=1)
    k1, off = np.divmod(forms[:, 0] * h11, den)
    if off.any():
        raise AssertionError("a first-slot form is not a character of the box")
    turn = np.exp((2j * math.pi / den) * (np.outer(np.arange(h22), forms[:, 1]) % den))
    return (cols[:, k1] * turn).sum(axis=0)


def kloosterman_row(n: int, c: int) -> np.ndarray:
    """The vector (S(r, n; c))_{r mod c}: ``_box_sums`` over Z/c, the box
    (c, 0, 1), at every r.  The degree-1 Petersson side, the E-term and
    ``kloosterman_q`` index into it."""
    def build():
        inv = _inverse_table(c)
        xs = np.flatnonzero(inv >= 0)
        r = np.arange(c, dtype=np.int64)
        forms = np.stack([r, np.zeros_like(r)], axis=1)
        return _box_sums(c, 1, xs, np.zeros_like(xs), inv[xs] * (n % c) % c, c, forms).real
    return memo(("kloosterman row", n % c, c), build)


def kloosterman_q(m: int, n: int, c: int) -> float:
    """S(m, n; c) = sum over x in (Z/c)^x of e((m x + n x^-1)/c).  Real."""
    if c < 1:
        raise ValueError("modulus must be positive")
    return float(kloosterman_row(n, c)[m % c])


# -- number-field Kloosterman sums -------------------------------------------

def _hnf_2x2(mat):
    """Column HNF [[h11, h12], [0, h22]] of an integer 2x2 matrix."""
    (a, b), (c, d) = mat
    # columns (a, c), (b, d); Euclid on the bottom row
    while c != 0:
        q = d // c
        b, d = b - q * a, d - q * c
        a, b = b, a
        c, d = d, c
    if a < 0:
        a = -a
    if d < 0:
        b, d = -b, -d
    b %= a if a else 1
    return a, b, d


def _residue_box(field: FieldDescriptor, c) -> tuple[int, int, int]:
    """(h11, h12, h22): residues of O/(c) are x1 + x2*omega, 0<=x1<h11, 0<=x2<h22
    after reduction by the column basis ((h11,0),(h12,h22)) of c*O."""
    t, n = field.omega_trace, field.omega_norm
    a, b = c
    # columns: c*1 and c*omega
    h11, h12, h22 = _hnf_2x2(((a, -n * b), (b, a + t * b)))
    if h11 * h22 != abs(_cnorm(t, n, c)):
        raise AssertionError("HNF box does not match the ideal norm")
    return h11, h12, h22


@dataclass(frozen=True)
class KloostermanQuery:
    """Element-level data of Kl(alpha, O; beta, O; c, O) with h^+ = 1."""

    alpha: FieldElement
    beta: FieldElement
    c: FieldElement

    def __post_init__(self):
        if self.c.is_zero():
            raise ValueError("modulus c must be nonzero")
        if not all(x.is_integral() for x in (self.alpha, self.beta, self.c)):
            raise ValueError("alpha, beta and c must be integral")
        if not is_totally_positive(self.alpha) or not is_totally_positive(self.beta):
            raise ValueError("alpha and beta must be totally positive")


_KL_NF_CAP = 10_000


# Integer coordinates (a, b) = a + b*omega, with omega^2 = t*omega - n; the
# kernel below does all its arithmetic on them.

def _cmul(t: int, n: int, u, v):
    return (u[0] * v[0] - n * u[1] * v[1],
            u[0] * v[1] + u[1] * v[0] + t * u[1] * v[1])


def _cnorm(t: int, n: int, u) -> int:
    return u[0] * u[0] + t * u[0] * u[1] + n * u[1] * u[1]


def _cconj(t: int, u):
    return (u[0] + t * u[1], -u[1])


def _coords(x: FieldElement) -> tuple[int, int]:
    """The integer coordinates of x; ValueError unless x is integral."""
    if not x.is_integral():
        raise ValueError(f"{x} is not integral")
    return x.a.numerator, x.b.numerator


def _residue_data(field: FieldDescriptor, c, box):
    """Invertible residues x of O/(c) and their inverses, as coordinate arrays
    (x1, x2, b1, b2); the inverse coordinates lie in [0, N(c)), not in the box.
    ``box`` is ``_residue_box(field, c)``.

    The table is stored under the HNF box, so every generator of (c) shares
    it: an inverse is only defined mod (c), and the phases that read it are
    reduced mod 1.
    """
    return memo(("residues", field.key, box), lambda: _build_residues(field, c, box))


def _build_residues(field: FieldDescriptor, c, box):
    """The unit residues x of the box, x2 outer and x1 inner, with inverses
    b = conj(y) N(y)^-1 mod N, N = |N(c)|: y = x + j c for the first j in
    0..omega(N) whose norm is a unit mod N.  N lies in (c), so x b = 1 mod (c).

    A non-unit x lies in a prime q | (c), and so does every shift: it has no
    such y.  For a unit x, x + j c lies in a prime q | p | N only when q does
    not divide (c).  Then q is split, c is a unit mod q, and q rules out one
    class of j mod p.  Split p is at least 7 in both fields, more than
    omega(N) for any N under the cap, so some j <= omega(N) is left.
    """
    t, n = field.omega_trace, field.omega_norm
    h11, _, h22 = box
    nc = h11 * h22
    inv = _inverse_table(nc)
    c1, c2 = c[0] % nc, c[1] % nc  # c mod every prime above N, small in int64
    x2, x1 = np.divmod(np.arange(1, nc, dtype=np.int64), h11)
    b1, b2 = np.zeros_like(x1), np.zeros_like(x1)
    found = np.zeros(len(x1), dtype=bool)
    for j in range(len(prime_divisors(nc)) + 1):
        y1, y2 = x1 + j * c1, x2 + j * c2
        u = inv[(y1 * y1 + t * y1 * y2 + n * y2 * y2) % nc]
        new = (u >= 0) & ~found
        b1[new] = (y1 + t * y2)[new] * u[new] % nc
        b2[new] = -y2[new] * u[new] % nc
        found |= new
    return x1[found], x2[found], b1[found], b2[found]


def _different(field: FieldDescriptor) -> tuple[int, int]:
    return memo(("different", field.key), lambda: _coords(field.different_gen))


def _trace_form(t: int, n: int, y, den: int) -> tuple[int, int]:
    """(Tr(y), Tr(y*omega)) mod den, so Tr(y*x) = their dot with x's coordinates."""
    return (2 * y[0] + t * y[1]) % den, (t * y[0] + (t * t - 2 * n) * y[1]) % den


def _kl_nf_slots(field: FieldDescriptor, alphas, beta, c) -> np.ndarray:
    """Kl(alpha, beta; c) for every alpha in ``alphas``: the one kernel of the
    degree-2 Kloosterman sums.  Every argument is an integer coordinate pair.

    The sum runs over x in (D^{-1}/D^{-1}c)^x of e(Tr((alpha x + beta xbar)/c)),
    x xbar = 1 mod (c).  Writing x = xi/delta with delta >> 0 generating the
    different puts it on (O/(c))^x.  With den = N(delta)|N(c)| and s the sign
    of N(c),

        Tr(alpha xi/(delta c))    = s Tr(alpha conj(delta c) xi) / den,
        Tr(beta delta xibar / c)  = s N(delta) Tr(beta delta conj(c) xibar) / den,

    so each phase is an integer linear form in the coordinates of xi and
    xibar, reduced mod den before any float enters.  The coordinates and the
    form's coefficients all lie in [0, den), so no term reaches den^2, far
    inside int64 for any N(c) a residue table can hold.
    """
    t, n = field.omega_trace, field.omega_norm
    nc = _cnorm(t, n, c)
    if abs(nc) > _KL_NF_CAP:
        raise ValueError(f"residue enumeration overflow: N(c) = {abs(nc)} > cap {_KL_NF_CAP}")
    if abs(nc) == 1:
        return np.ones(len(alphas), dtype=complex)
    box = _residue_box(field, c)
    x1, x2, b1, b2 = _residue_data(field, c, box)
    delta = _different(field)
    nd = _cnorm(t, n, delta)
    s = 1 if nc > 0 else -1
    den = nd * abs(nc)
    cbar = _cconj(t, c)
    p = _cmul(t, n, (s, 0), _cmul(t, n, _cconj(t, delta), cbar))
    q = _cmul(t, n, (s * nd, 0), _cmul(t, n, delta, cbar))
    q1, q2 = _trace_form(t, n, _cmul(t, n, beta, q), den)
    forms = np.array([_trace_form(t, n, _cmul(t, n, a, p), den) for a in alphas],
                     dtype=np.int64)
    return _box_sums(box[0], box[2], x1, x2, (q1 * b1 + q2 * b2) % den, den, forms)


def kloosterman_nf(q: KloostermanQuery) -> float:
    """Kl for totally positive slot data; conjugation symmetry makes it real."""
    val = _kl_nf_slots(q.alpha.field, [_coords(q.alpha)], _coords(q.beta), _coords(q.c))[0]
    if abs(val.imag) > 1e-7 * (1.0 + abs(val.real)):
        raise AssertionError(f"Kloosterman sum has nonvanishing imaginary part {val.imag}")
    return float(val.real)


# -- Petersson trace formula, degree 1 ----------------------------------------

def _rhs_q_tail(x: float, k: int, c_from: float) -> float:
    """2 pi * sum_{c > c_from} (1/c) * c * J-bound((x/c)) with J <= (x/2c)^{k-1}/(k-1)!"""
    return 2.0 * math.pi * float(bessel_j_c_tail_bound(k - 1, x, c_from))


def petersson_rhs_q(m: int, n: int, k: int, c_max: int | None = None,
                    tol: float = 1e-10) -> CertValue:
    """delta_{m=n} + 2 pi (-1)^{k/2} sum_{c>=1} S(m,n;c)/c J_{k-1}(4 pi sqrt(mn)/c).

    The factor 2 relative to the raw constant C = (-1)^{k/2} (2 pi)^n / 2
    comes from folding c <-> -c.
    """
    if k < 4 or k % 2:
        raise ValueError("weight must be even and >= 4")
    x = 4.0 * math.pi * math.sqrt(m * n)
    if c_max is None:
        c_max = max(8, int(x / 2) + 1)
        while _rhs_q_tail(x, k, c_max) > tol:
            c_max *= 2
            if c_max > 10 ** 7:
                raise UncertifiedError("petersson_rhs_q: tail not certifiable",
                                       certificate=_rhs_q_tail(x, k, c_max))
    tail = _rhs_q_tail(x, k, c_max)
    if tail > tol:
        raise UncertifiedError(
            f"petersson_rhs_q: tail bound {tail:.3e} above tol {tol:.1e}",
            certificate=tail)
    sign = -1.0 if (k // 2) % 2 else 1.0
    js = bessel_j_array(k - 1, x / np.arange(1, c_max + 1))
    acc = 0.0
    for c, j in enumerate(js, 1):
        if j != 0.0:
            acc += float(kloosterman_row(n, c)[m % c]) / c * j
    val = (1.0 if m == n else 0.0) + 2.0 * math.pi * sign * acc
    return CertValue(value=val, certificate=tail)


# -- Petersson trace formula, degree 2 -----------------------------------------

@dataclass(frozen=True)
class TraceRHSParams:
    """Truncation policy for the degree-2 right-hand side."""

    weight_vec: tuple[int, int]
    c_norm_bound: int = 300
    unit_height_bound: float = 50.0
    tol: float = 1e-8

    def __post_init__(self):
        if len(self.weight_vec) != 2:
            raise ValueError(f"weight_vec {self.weight_vec} must hold two weights, "
                             f"one per real embedding")
        if any(kj % 2 or kj < 4 for kj in self.weight_vec):
            raise ValueError("weights must be even and >= 4")
        if self.c_norm_bound < 1 or self.unit_height_bound < 1:
            raise ValueError("bounds must be >= 1")


def _ideal_generators_canonical(field: FieldDescriptor, norm_max: int):
    """One generator per nonzero ideal of norm <= norm_max, chosen in the
    fundamental window sigma_1(c) in [sqrt(N), eps0^2 sqrt(N)), sigma_1 > 0.

    Every element in the window has |sigma_2| <= sqrt(N), so an integer
    coordinate box covers all candidates; the HNF of the multiplication
    lattice is a complete ideal invariant and drives the deduplication.
    """
    w1, w2 = (float(v) for v in field.embed_omega(64))
    window = field.eps1 * field.eps1
    s1_max = window * math.sqrt(norm_max)
    s2_max = math.sqrt(norm_max)
    out: dict = {}
    b_max = int((s1_max + s2_max) / (w1 - w2)) + 2
    for b in range(-b_max, b_max + 1):
        # s1 = a + b w1 in (0, s1_max]
        lo = int(math.floor(-b * w1))
        hi = int(math.ceil(s1_max - b * w1))
        for a in range(lo, hi + 1):
            s1 = a + b * w1
            if s1 <= 0 or s1 > s1_max:
                continue
            s2 = a + b * w2
            if abs(s2) > s2_max + 1e-9:
                continue
            nr = a * a + field.omega_trace * a * b + field.omega_norm * b * b
            anr = abs(nr)
            if anr == 0 or anr > norm_max:
                continue
            rt = math.sqrt(anr)
            if not (rt * (1 - 1e-12) <= s1 < window * rt * (1 + 1e-12)):
                continue
            key = _residue_box(field, (a, b))
            cur = out.get(key)
            if cur is None or s1 < cur[0]:
                out[key] = (s1, a, b, anr)
    vals = sorted(out.values(), key=lambda t: (t[3], t[0]))
    return [(field.element(a, b), anr) for (s1, a, b, anr) in vals]


def _moduli(field: FieldDescriptor, norm_max: int):
    """The canonical moduli of norm <= norm_max, built once per (field, bound):
    their integer coordinates, their norms, and |sigma_j(c)| one row each."""
    def build():
        gens = _ideal_generators_canonical(field, norm_max)
        return ([_coords(c) for c, _ in gens],
                np.array([nc for _, nc in gens], dtype=float),
                np.abs(np.array([embed_float(c) for c, _ in gens])))
    return memo(("moduli", field.key, norm_max), build)


def _units(field: FieldDescriptor, height: float):
    """The totally positive units of height <= ``height`` and sigma_j(eta) one
    row each, built once per (field, height)."""
    def build():
        units = totally_positive_units(field, height)
        return units, np.array([embed_float(u) for u in units])
    return memo(("units", field.key, height), build)


def petersson_rhs_nf(nu: FieldElement, xi: FieldElement,
                     params: TraceRHSParams) -> CertValue:
    """Geometric side of the trace formula over a real quadratic field.

    1_{(nu)=(xi), nu/xi >> 0} + C * 2 * sum over canonical c, sum over
    totally positive units eta of Kl(eta nu, xi; c)/N(c) *
    prod_j J_{k_j-1}(4 pi sqrt(sigma_j(eta nu xi)) / |sigma_j(c)|),
    with C = (-1)^{(k_1+k_2)/2} (2 pi)^2 / (2 sqrt(d_F)).
    """
    field = nu.field
    if not (is_totally_positive(nu) and is_totally_positive(xi)):
        raise ValueError("nu and xi must be totally positive")
    k1, k2 = params.weight_vec
    diag = 0.0
    ratio = nu / xi
    if ratio.is_integral() and abs(norm(ratio)) == 1 and is_totally_positive(ratio):
        diag = 1.0
    sign = -1.0 if ((k1 + k2) // 2) % 2 else 1.0
    C = sign * (2.0 * math.pi) ** 2 / (2.0 * math.sqrt(field.discriminant))

    units, eta_emb = _units(field, params.unit_height_bound)
    slots = [_coords(u * nu) for u in units]
    beta = _coords(xi)
    nu_emb = np.array(embed_float(nu))
    xi_emb = np.array(embed_float(xi))
    moduli, norms, c_emb = _moduli(field, params.c_norm_bound)

    # every (c, eta) argument at once, the embedding j last
    args = 4.0 * math.pi * np.sqrt(eta_emb * nu_emb * xi_emb)[None, :, :] / c_emb[:, None, :]
    jprod = bessel_j_array(k1 - 1, args[..., 0]) * bessel_j_array(k2 - 1, args[..., 1])
    acc = 0.0
    for c, nc, jp in zip(moduli, norms, jprod):
        kl = _kl_nf_slots(field, slots, beta, c).real
        acc += float(np.dot(kl, jp)) / nc

    # units past the height bound, over the kept moduli: eta = eps0^(2t) scales
    # the two arguments by eps1^t and eps1^-t
    x = 4.0 * math.pi * np.sqrt(nu_emb * xi_emb)
    s = field.eps1
    t_start = int(math.floor(math.log(params.unit_height_bound) / (2 * math.log(s)))) + 1
    b1, b2 = x[0] / c_emb[:, 0], x[1] / c_emb[:, 1]
    eta_tail = float(np.sum((_translate_tail(k1, k2, b1, b2, s, t_start)
                             + _translate_tail(k2, k1, b2, b1, s, t_start)) / norms))
    c_tail = _c_tail_bound(k1, k2, x, s, params.c_norm_bound)
    value = diag + C * 2.0 * acc
    cert = abs(C) * 2.0 * (eta_tail + c_tail)
    if cert > params.tol:
        raise UncertifiedError(
            f"petersson_rhs_nf: certificate {cert:.3e} above tol {params.tol:.1e}",
            certificate=cert)
    return CertValue(value=value, certificate=cert)


def _translate_tail(k_up: int, k_down: int, x_up, x_down, s: float, t_from: int) -> np.ndarray:
    """Per row, sum over t >= t_from of min(0.7, B(x_up s^t)) min(0.7, B(x_down s^-t)),
    with s > 1 and B the J series bound of order k_up - 1 resp. k_down - 1.

    A row stops at its first term below 1e-30 whose rising factor sits at the
    0.7 cap.  Every later term is that cap times the falling factor, which
    shrinks by r = s^-(k_down - 1) per step, so the stopping term stands for
    itself and the rest at weight 1/(1 - r).  Rows that run past 512 terms
    give inf.
    """
    width = 16
    while True:
        st = s ** np.arange(t_from, t_from + width, dtype=float)
        up = np.minimum(0.7, bessel_j_series_bound(k_up - 1, np.outer(x_up, st)))
        terms = up * np.minimum(0.7, bessel_j_series_bound(k_down - 1, np.outer(x_down, 1.0 / st)))
        done = (terms < 1e-30) & (up == 0.7)
        if done[:, -1].all():
            break
        if width >= 512:
            return np.full(len(terms), np.inf)
        width *= 2
    col = np.arange(width) - np.argmax(done, axis=1)[:, None]
    weight = np.where(col < 0, 1.0, np.where(col == 0, 1.0 / (1.0 - s ** (1 - k_down)), 0.0))
    return (terms * weight).sum(axis=1)


def _c_tail_bound(k1: int, k2: int, x, s: float, norm_bound: int) -> float:
    """Ideals beyond the norm bound, x_j = 4 pi sqrt(sigma_j(nu xi)):
    r(N) <= sqrt(3N), and canonical-window embeddings satisfy
    |sigma_j(c)| >= sqrt(N)/eps0^2."""
    n0 = norm_bound + 1
    norms = np.arange(n0, 8 * n0, dtype=float)
    x1, x2 = (x * s * s)[:, None] / np.sqrt(norms)
    per_eta = _translate_tail(k1, k2, x1, x2, s, 0) + _translate_tail(k2, k1, x2, x1, s, 1)
    total = float(np.sum(np.sqrt(3.0 * norms) * per_eta))
    # beyond 8*n0: assumes each eta-sum decays like N^{-(k1+k2-2)/2}, which
    # terms held at the 0.7 cap do not (ROADMAP item 2)
    decay = (k1 + k2 - 2) / 2.0
    far = 8 * n0 - 1
    return total + math.sqrt(3.0) * float(per_eta[-1]) * far ** 1.5 / (decay - 1.5)


def unit_sum_tail(field: FieldDescriptor, lambda0: float, bound: float) -> CertValue:
    """Partial sum of prod_{|sigma_j(eta)|>1} |sigma_j(eta)|^{-lambda0} over
    totally positive units of height <= bound, plus the geometric tail."""
    if lambda0 < 0:
        raise ValueError("lambda0 must be >= 0")
    eps1 = field.eps1
    t_max = int(math.floor(math.log(bound) / (2 * math.log(eps1))))
    if lambda0 == 0.0:
        return CertValue(value=float(2 * t_max + 1), certificate=math.inf)
    r = eps1 ** (-2.0 * lambda0)
    partial = 1.0 + 2.0 * sum(r ** t for t in range(1, t_max + 1))
    tail = 2.0 * r ** (t_max + 1) / (1.0 - r)
    return CertValue(value=partial, certificate=tail)
