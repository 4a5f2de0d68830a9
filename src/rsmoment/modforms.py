"""Level-1 elliptic modular forms: q-expansions, Hecke eigenforms.

The degree-1 specialization of the Hilbert machinery: cusp forms for
SL_2(Z), built from Delta and the Eisenstein series.  Exact big-integer
arithmetic is used for every structural step (echelon basis, Hecke
matrices).  One ``mpmath.eig`` of a Hecke matrix per weight gives the
eigenvectors v (``_eig``), kept exactly as integers V = v 2^P; an
eigenform's coefficients are then integer sums sum_i V_i b_i(n) over the
echelon Miller basis, scaled to C_f(n) by one correctly rounded int/int
division (``_normalized``).  The basis is read off the
monomials Delta^i D E_{k-12i}, i = 1..d, one exact product each (D E_w, the
least integral multiple of E_w, from ``series.eisenstein_exact``).  That
build serves every length up to ``_EXACT_MAX`` (every moment report's to
k = 120), and every length when the most-cuspidal monomial Delta^d E_w
carries an Eisenstein factor (k not 0 mod 12).  Past it, pure Delta^d weights
(k = 12d) extend the normalized coefficients C_f(n) = a_f(n) / n^{(k-1)/2} in
float64 from Delta^d and its translates by Hecke words in T_2 and T_3,
cusp-by-cusp products free of the Eisenstein-versus-cusp cancellation that
floats cannot survive.  The Miller basis is echelon, so a cusp form is fixed
by a(1..d): a form's coordinates in the Hecke-word span are one exact
rational inverse of the d x d matrix of the words' first d coefficients,
applied to a_f(1..d), and that inverse exists exactly when the words span
S_k.  Each float build checks its word combination, which reads the float
Delta^d up to 4 ``_HEAD``, against the exact (k, ``_HEAD``) entry on
[_HEAD / 2, _HEAD], carries that check's error (it sees float error, but is
not a bound), and splices the exact entry in.

``eigenforms(k, length)`` is one ``series.memo`` entry per (k, length),
built from k and length alone: the exact series behind it come from
``series``' grow-only store, which is the same whatever the build length,
and the float Delta^d is a local product chain that nothing stores.  The
Hecke solve is one entry per weight.
``series.clear_store`` resets all of them.

Also hosts the plain-text newform coefficient file format used to feed the
fixed form g.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import series

__all__ = [
    "QExpansion",
    "Eigenform",
    "NewformRecord",
    "dim_cusp",
    "miller_basis",
    "hecke_apply",
    "hecke_matrix",
    "eigenforms",
    "load_newform",
    "write_newform",
    "newform_from_eigenform",
]


def dim_cusp(k: int) -> int:
    """dim S_k(SL_2(Z)) for even k >= 4."""
    if k % 2 or k < 4:
        return 0
    dim_m = k // 12 + (0 if k % 12 == 2 else 1)
    return dim_m - 1


@dataclass
class QExpansion:
    """Exact integer q-expansion a(0..M) of a weight-k form (a(0)=0 if cuspidal)."""

    weight: int
    an: list[int]

    def __post_init__(self):
        if self.weight % 2:
            raise ValueError("odd weight")

    @property
    def length(self) -> int:
        return len(self.an) - 1

    def a(self, n: int) -> int:
        return self.an[n]


@dataclass(frozen=True)
class Eigenform:
    """Normalized Hecke eigenform of level 1.

    ``cn`` holds C_f(n) = a_f(n)/n^{(k-1)/2} as read-only float64,
    index-aligned with cn[0] = 0.  ``float_rel`` is the float-vs-exact
    overlap error of the build that made ``cn``: 0 when ``cn`` was built
    exactly (a weight not 0 mod 12, or at most ``_EXACT_MAX`` coefficients).
    The overlap check reads float coefficients of Delta^d, so it sees the
    float extension's error, but it reads low and is not a bound on it.
    """

    weight: int
    index: int
    cn: np.ndarray
    float_rel: float = 0.0

    @property
    def length(self) -> int:
        return len(self.cn) - 1

    def c(self, n: int) -> float:
        return float(self.cn[n])

    def a(self, n: int) -> float:
        return self.cn[n] * n ** ((self.weight - 1) / 2.0)


@dataclass
class NewformRecord:
    """The fixed form g: weight, level, and already-normalized C_g(m)."""

    weight: int
    level: int
    cn: np.ndarray

    def __post_init__(self):
        if self.weight % 2:
            raise ValueError("odd weight")
        if abs(self.cn[1] - 1.0) > 1e-12:
            raise ValueError("not normalized")

    @property
    def length(self) -> int:
        return len(self.cn) - 1

    def c(self, n: int) -> float:
        return float(self.cn[n])


# -- generators ----------------------------------------------------------------

def _delta_power_exact(i: int, n_out: int) -> list[int]:
    """Delta^i, exact, with n_out coefficients."""
    if i == 1:
        return series.delta_exact(n_out)
    return series.stored(("delta^i", i), n_out, lambda n: series.mul_exact(
        _delta_power_exact(i - 1, n), series.delta_exact(n), n))


def _monomial_exact(i: int, w: int, length: int) -> list[int]:
    """Delta^i * D E_w (Delta^i alone for w = 0), exact, with length+1 coefficients."""
    if not w:
        return _delta_power_exact(i, length + 1)
    return series.stored(("monomial", i, w), length + 1, lambda n: series.mul_exact(
        _delta_power_exact(i, n), series.eisenstein_exact(w, n), n))


def miller_basis(k: int, length: int) -> list[QExpansion]:
    """Echelonized cusp basis: a(f_i, j) = delta_ij for i, j <= dim S_k.  Exact.

    Delta^i D E_{k-12i} = D q^i + O(q^(i+1)), i = 1..d, is one product each;
    reduced upwards, row i is D times the integral echelon form f_i.
    """
    d = dim_cusp(k)
    if k % 2 or d < 1:
        raise ValueError("empty space")
    length = max(length, d)
    fs = [None] * d
    for i in range(d, 0, -1):
        cur = _monomial_exact(i, k - 12 * i, length)
        for j in range(i + 1, d + 1):
            coeff = cur[j]
            if coeff:
                fj = fs[j - 1]
                cur = [c - coeff * x for c, x in zip(cur, fj)]
        lead = cur[i]
        if lead != 1:
            if any(c % lead for c in cur):
                raise ArithmeticError(f"row {i} of the Miller basis of S_{k} is not integral")
            cur = [c // lead for c in cur]
        fs[i - 1] = cur
    return [QExpansion(k, f) for f in fs]


def hecke_apply(m: int, f: QExpansion, out_len: int | None = None) -> QExpansion:
    """T_m f with a(T_m f)(n) = sum_{e | gcd(m,n)} e^{k-1} a(mn/e^2).  Exact."""
    if m < 1:
        raise ValueError("m must be positive")
    if out_len is None:
        out_len = f.length // m
    if f.length < m * out_len:
        raise ValueError("length underflow")
    k = f.weight
    out = [0] * (out_len + 1)
    for n in range(1, out_len + 1):
        acc = 0
        g = math.gcd(m, n)
        for e in range(1, g + 1):
            if g % e == 0:
                acc += e ** (k - 1) * f.an[m * n // (e * e)]
        out[n] = acc
    return QExpansion(k, out)


# -- eigenform machinery --------------------------------------------------------

def _eig(A: list[list[int]], dps: int, k: int) -> tuple[list[mp.mpf], list[list[mp.mpf]]]:
    """(eigenvalues, eigenvectors) of a Hecke matrix A of S_k at ``dps``
    digits, eigenvalues descending, each v scaled to v[0] = 1 (in the
    echelon basis v[i] = a_f(i + 1), and a_f(1) is never 0).

    ``mp.eig`` runs on D^-1 A D, D = diag(2^round(((k - 1)/2) log2(i + 1))),
    exact in binary: it turns v into about C_f(i + 1), bounded by Deligne,
    where a_f(i + 1) spans (k - 1)/2 log10(d) decimal orders.  T_m is
    self-adjoint for the Petersson product, so an imaginary part above
    10^(-dps/2) of the scale means too few digits for A: that raises, as do
    two eigenvalues closer than 1e-6 of the scale.
    """
    d = len(A)
    e = [round((k - 1) / 2 * math.log2(i + 1)) for i in range(d)]
    with mp.workdps(dps):
        E, ER = mp.eig(mp.matrix([[mp.ldexp(A[i][j], e[j] - e[i]) for j in range(d)]
                                  for i in range(d)]))
        scale = max(abs(lam) for lam in E) + 1
        if any(abs(lam.imag) > mp.mpf(10) ** (-dps / 2) * scale for lam in E):
            raise ValueError(f"complex eigenvalue at {dps} digits")
        order = sorted(range(d), key=lambda i: E[i].real, reverse=True)
        lams = [E[i].real for i in order]
        if any(lams[i] - lams[i + 1] <= 1e-6 * scale for i in range(d - 1)):
            raise ValueError("eigenvalues not separated")
        vecs = [[mp.ldexp((ER[r, i] / ER[0, i]).real, e[r]) for r in range(d)] for i in order]
    return lams, vecs


def hecke_matrix(k: int, m: int) -> list[list[int]]:
    """The matrix of T_m on the echelon Miller basis of S_k, exact: column i
    holds a(T_m f_i)(1..d), the coordinates of T_m f_i."""
    d = dim_cusp(k)
    basis = miller_basis(k, m * d)
    return [[hecke_apply(m, basis[i], d).an[j + 1] for i in range(d)]
            for j in range(d)]


def _eigen_data(k: int):
    """(m, P, vectors): the first Hecke operator T_m whose eigenvalues on
    S_k ``_eig`` separates at 40 digits plus twice those of the largest
    entry, and the eigenvectors of that one solve as exact integers.  Each
    mpf v_i is a dyadic rational, so V_i = v_i 2^P, P = -(least exponent),
    is v_i exactly.  One solve per weight: every build of S_k reads it."""
    def build():
        for m in (2, 3, 5):
            A = hecke_matrix(k, m)
            dps = 40 + 2 * len(str(max(abs(x) for row in A for x in row)))
            try:
                vecs = _eig(A, dps, k)[1]
            except ValueError:
                continue
            P = max(0, -min(x.man_exp[1] for v in vecs for x in v))
            return m, P, [[int(mp.ldexp(x, P)) for x in v] for v in vecs]
        raise ValueError("cannot separate eigenforms")
    return series.memo(("Hecke data", k), build)


def _exact_eigen(k: int, length: int) -> tuple[Eigenform, ...]:
    """The eigenforms of S_k to ``length``: the echelon Miller basis times
    each integer eigenvector of ``_eigen_data``.

    Every coefficient is evaluated in integers: s = sum_i V_i b_i(n) is exact,
    and C_f(n) = (s / (n^((k-2)/2) 2^P)) / sqrt(n) (``_normalized``) is within
    3 ulp of sum_i v_i b_i(n) / n^((k-1)/2) for the stored v.  The only
    other error is the solve's own: v_f + sum_g eps_g v_g moves C_f(n) by
    sum_g eps_g C_g(n), with |eps_g| <= 10^(2 - dps) against a solve 100
    digits finer (every k <= 120), and dps >= 56 whenever d >= 2.  A
    coefficient depends on k and n alone, so builds of any two lengths agree
    bit for bit on their common prefix.
    """
    basis = miller_basis(k, length)
    _, P, vectors = _eigen_data(k)
    cols = list(zip(*(f.an for f in basis)))[: length + 1]
    forms = []
    for idx, V in enumerate(vectors):
        cn = _normalized([sum(map(operator.mul, V, col)) for col in cols], k, P)
        cn.flags.writeable = False
        forms.append(Eigenform(weight=k, index=idx, cn=cn))
    return tuple(forms)


def _float_eigen(k: int, length: int) -> tuple[Eigenform, ...]:
    """Float forms of S_k, k = 12d, to ``length`` past ``_EXACT_MAX``, from
    the Hecke-word span, with the exact ``eigenforms(k, _HEAD)`` spliced in.
    a_f(1..d) are the eigenvector (echelon basis), so each coordinate
    gamma = M^-1 a_f(1..d) is one exact rational sum."""
    d = dim_cusp(k)
    if d not in _SPAN_WORDS:
        raise ValueError(f"S_{k} has dimension {d}, and Hecke-word spans exist only "
                         f"for d <= {max(_SPAN_WORDS)}: its eigenforms stop at "
                         f"{_EXACT_MAX} coefficients")
    prefix = eigenforms(k, _HEAD)
    _, P, vectors = _eigen_data(k)
    inv = _span_inverse(k, d)
    orbit = _hecke_orbit_normalized(k, d, length)
    out = []
    for f, V in zip(prefix, vectors):
        cn = np.zeros(length + 1)
        for j in range(d):
            gam = sum(c * v for c, v in zip(inv[j], V)) / (1 << P)
            cn += float(gam) * orbit[j]
        # validate the overlap, where the words read float Delta^d, then
        # splice the exact head
        ov = slice(_HEAD // 2, _HEAD + 1)
        denom = np.abs(f.cn[ov]) + 1e-6
        rel = np.max(np.abs(cn[ov] - f.cn[ov]) / denom)
        if rel > 5e-6:
            raise ArithmeticError(
                f"float extension disagrees with exact prefix (rel {rel:.2e})")
        cn[: _HEAD + 1] = f.cn
        cn.flags.writeable = False
        out.append(replace(f, cn=cn, float_rel=float(rel)))
    return tuple(out)


# Hecke words whose translates of Delta^d span S_{12d}; the
# exact coordinate step (``_span_inverse``) checks that on every extension.
# Words multiply the needed base length by prod(word), so this caps the
# length overhead at 4x at dim 4 (the plain T_2 orbit would need 8x).  A
# dim-5 row (adding the word (2, 3)) fails the 5e-6 overlap gate of
# ``_float_eigen``: rel 5.8e-5 at every length from 2^14 + 1 to 2^16.
_SPAN_WORDS = {
    1: [()],
    2: [(), (2,)],
    3: [(), (2,), (3,)],
    4: [(), (2,), (3,), (2, 2)],
}


def _span_inverse(k: int, d: int) -> list[list[Fraction]]:
    """Exact inverse of M[i][j] = a(R_j)(i + 1), i, j < d, R_j the Hecke-word vectors.

    A cusp form f is fixed by a_f(1..d), so f = sum_j gamma_j R_j with
    gamma = M^-1 (a_f(1), ..., a_f(d)); the words span S_k exactly when M
    is invertible, and a singular M raises ArithmeticError.
    """
    vecs = _span_raw_exact(k, d)
    rows = [[Fraction(v[i]) for v in vecs] + [Fraction(int(i == r + 1)) for r in range(d)]
            for i in range(1, d + 1)]
    for c in range(d):
        piv = next((i for i in range(c, d) if rows[i][c] != 0), None)
        if piv is None:
            raise ArithmeticError(f"Hecke-word span of S_{k} is rank-deficient")
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(d):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [row[d:] for row in rows]


def _span_raw_exact(k: int, d: int) -> list[list[int]]:
    """The Hecke-word translates of Delta^d in S_k, k = 12d, exact to d."""
    out = []
    for word in _SPAN_WORDS[d]:
        need = d * math.prod(word)
        cur = _delta_power_exact(d, need + 1)
        run = need
        for p in reversed(word):
            run //= p
            cur = hecke_apply(p, QExpansion(k, cur), run).an
        out.append(list(cur[: d + 1]))
    return out


def _tp_raw_float(arr: np.ndarray, weight: int, p: int, out_len: int) -> np.ndarray:
    out = np.zeros(out_len + 1)
    out[1:] = arr[p: p * out_len + 1: p]
    out[p:: p] += float(p) ** (weight - 1) * arr[1: out_len // p + 1]
    return out


def _normalized(sums: list[int], k: int, P: int) -> np.ndarray:
    """C(n) = (s_n / (n^((k-2)/2) 2^P)) / sqrt(n) for exact integers
    s_n ~ a(n) 2^P, n >= 1, and C(0) = 0.  The int/int division is correctly
    rounded, so with the float division C(n) is within 3 ulp of
    s_n / (2^P n^((k-1)/2))."""
    h = (k - 2) // 2
    out = np.zeros(len(sums))
    out[1:] = [s / ((n ** h) << P) for n, s in enumerate(sums[1:], 1)]
    out[1:] /= np.sqrt(np.arange(1, len(sums)))
    return out


def _hecke_orbit_normalized(k: int, d: int, length: int) -> list[np.ndarray]:
    """Normalized float arrays of the Hecke-translate spanning set of S_k, k = 12d.

    Every vector is a T-word applied to Delta^d, read off Delta^d's float
    expansion by index gathers and scaled by n^{-(k-1)/2}, so the only
    convolution work is Delta^d itself.  The word (p) reads Delta^d at p n,
    so past index ``_HEAD`` / p it reads float coefficients: the overlap
    check of ``_float_eigen`` on [``_HEAD`` / 2, ``_HEAD``] sees them.
    """
    need = (length + 1) * max(map(math.prod, _SPAN_WORDS[d]))
    base = _delta_power_float(d, need)
    n = np.arange(length + 1, dtype=float)
    n[0] = 1.0
    scale = np.exp(-0.5 * (k - 1) * np.log(n))
    out = []
    for word in _SPAN_WORDS[d]:
        cur = base
        run = (len(base) - 1)
        for p in reversed(word):
            run //= p
            cur = _tp_raw_float(cur, k, p, run)
        out.append(np.array(cur[: length + 1]) * scale)
    return out


_HEAD = 1024  # exact-head length spliced into every float series stage


def _splice_head(arr: np.ndarray, exact: list[int]):
    h = min(len(exact), len(arr))
    arr[:h] = [float(x) for x in exact[:h]]
    return arr


def _tau_float(n: int) -> np.ndarray:
    """tau(0..n-1) as float64: eta^6 squared twice, shifted by one."""
    e6 = series.eta6_float(n)
    e12 = series.mul_float(e6, e6, n)
    e24 = series.mul_float(e12, e12, n)
    tau = np.zeros(n)
    tau[1:] = e24[: n - 1]
    return _splice_head(tau, series.delta_exact(min(_HEAD, n)))


def _delta_power_float(d: int, n: int) -> np.ndarray:
    """Delta^d as n raw float coefficients: tau, then one product by tau per
    power.  Nothing is stored; only tau and the current power stay alive."""
    tau = cur = _tau_float(n)
    for i in range(2, d + 1):
        cur = _splice_head(series.mul_float(cur, tau, n),
                           _delta_power_exact(i, min(_HEAD, n)))
    return cur


_EXACT_MAX = 2 ** 14  # longest exact build of a k = 12d weight


def eigenforms(k: int, length: int) -> list[Eigenform]:
    """The normalized Hecke eigenforms of S_k with coefficients to ``length``.

    One store entry per (k, length), built from k and length alone, so no
    coefficient depends on what was asked before.  A weight not 0 mod 12,
    and any request of at most ``_EXACT_MAX`` coefficients, is built
    exactly at ``length``; past it, k = 12d is extended in float
    (``_float_eigen``), for d <= 4 only (a larger d raises ``ValueError``
    before any build).  Each call returns a fresh list of the stored frozen
    forms, whose read-only ``cn`` has exactly ``length + 1`` entries.
    """
    if length < 1:
        raise ValueError("length must be positive")
    build = _exact_eigen if k % 12 or length <= _EXACT_MAX else _float_eigen
    return list(series.memo(("eigenforms", k, length), lambda: build(k, length)))


# -- newform records ---------------------------------------------------------------

def load_newform(path) -> NewformRecord:
    """Parse the plain-text coefficient file (weight/level/count header, then m C(m))."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        weight = int(lines[0].split()[1])
        level = int(lines[1].split()[1])
        count = int(lines[2].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"newform parse failure: {exc}") from exc
    if count < 1:
        raise ValueError(f"newform parse failure: count {count} < 1")
    if len(lines) - 3 != count:
        raise ValueError(f"newform parse failure: {len(lines) - 3} coefficient lines, "
                         f"count {count}")
    cn = np.zeros(count + 1)
    seen = set()
    for ln in lines[3:]:
        try:
            m, val = ln.split()[:2]
            m, val = int(m), float(val)
        except ValueError as exc:
            raise ValueError(f"newform parse failure: line {ln!r}: {exc}") from exc
        if not 1 <= m <= count:
            raise ValueError(f"newform parse failure: index {m} outside 1..{count}")
        if m in seen:
            raise ValueError(f"newform parse failure: index {m} repeated")
        seen.add(m)
        cn[m] = val
    if abs(cn[1] - 1.0) > 1e-12:
        raise ValueError("not normalized")
    rec = NewformRecord(weight=weight, level=level, cn=cn)
    _ramanujan_check(rec)
    return rec


def _ramanujan_check(rec: NewformRecord):
    limit = min(rec.length, 2000)
    for p in _primes_below(limit + 1):
        if rec.level % p == 0:
            continue
        if abs(rec.cn[p]) > 2.0 + 1e-9:
            warnings.warn(f"Ramanujan violation at p={p}: |C({p})| = {abs(rec.cn[p]):.6f}")
            break


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    out = []
    for p in range(2, n):
        if sieve[p]:
            out.append(p)
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return out


def write_newform(rec: NewformRecord, path):
    with open(path, "w") as fh:
        fh.write(f"weight {rec.weight}\n")
        fh.write(f"level {rec.level}\n")
        fh.write(f"count {rec.length}\n")
        for m in range(1, rec.length + 1):
            fh.write(f"{m} {rec.cn[m]:.17g}\n")


def newform_from_eigenform(f: Eigenform, level: int = 1) -> NewformRecord:
    return NewformRecord(weight=f.weight, level=level, cn=f.cn.copy())
