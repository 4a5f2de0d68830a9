"""Independent references that only the tests call.

Each oracle reaches a value the checker computes by another route, or is
the slower construction the checker replaced; nothing in ``src/`` imports
from here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from rsmoment import modforms as mf
from rsmoment import rankin as rk
from rsmoment import series
from rsmoment import specialfn as sf
from rsmoment import tracefmla as tf
from rsmoment.numfield import norm, trace


def evaluate(an: list[int], k: int, z: complex, tol: float = 1e-10):
    """(value, certified truncation bound) at z in the upper half-plane of
    the weight-k form with exact integer coefficients a(0..M), a(0) = 0.

    The tail bound uses |a(n)| <= C0 * n^{(k+1)/2}, with C0 calibrated on the
    computed coefficients: Deligne's bound (with d(n) <= n) for Delta, and
    heuristic to that extent for other integer expansions.
    """
    y = z.imag
    if y <= 0:
        raise ValueError("need Im z > 0")
    alpha = (k + 1) / 2.0
    M = len(an) - 1
    c0 = max(1.0, max(abs(float(an[n])) / n ** alpha for n in range(1, M + 1)))
    q = np.exp(2j * math.pi * z)
    r = abs(q)
    ratio = r * (1.0 + 1.0 / M) ** alpha
    if ratio >= 1.0:
        raise ValueError("truncation not certified")
    tail = c0 * (M + 1) ** alpha * r ** (M + 1) / (1.0 - ratio)
    if tail > tol:
        raise ValueError(f"truncation not certified (bound {tail:.3e} > tol {tol:.1e})")
    val = 0.0 + 0.0j
    qn = q
    for n in range(1, M + 1):
        val += float(an[n]) * qn
        qn *= q
    return val, tail


def miller_bases_chain(weights, length: int) -> dict[int, list[list[int]]]:
    """The echelon Miller basis of S_k, coefficients 0..length, for each k
    in ``weights``, from the monomials Delta^i E4^a E6^b, 4a + 6b = k - 12i.
    Each E4^a E6^b is one product onto E4^(a-1) E6^b or E4^a E6^(b-1), kept
    for every weight.  Every monomial leads with 1, so the upward reduction
    divides by nothing."""
    n = length + 1
    e4, e6 = series.eisenstein_exact(4, n), series.eisenstein_exact(6, n)
    powers = {(0, 0): [1] + [0] * length}  # (a, b) -> E4^a E6^b
    delta = [series.delta_exact(n)]  # delta[i - 1] = Delta^i

    def e4_e6(a, b):
        if (a, b) not in powers:
            prev, e = ((a, b - 1), e6) if b else ((a - 1, b), e4)
            powers[a, b] = series.mul_exact(e4_e6(*prev), e, n)
        return powers[a, b]

    out = {}
    for k in weights:
        d = mf.dim_cusp(k)
        while len(delta) < d:
            delta.append(series.mul_exact(delta[-1], delta[0], n))
        fs = [None] * d
        for i in range(d, 0, -1):
            w = k - 12 * i
            beta = 1 if w % 4 else 0
            cur = series.mul_exact(delta[i - 1], e4_e6((w - 6 * beta) // 4, beta), n)
            for j in range(i + 1, d + 1):
                coeff = cur[j]
                if coeff:
                    cur = [c - coeff * x for c, x in zip(cur, fs[j - 1])]
            fs[i - 1] = cur
        out[k] = fs
    return out


def char_poly_exact(A: list[list[int]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A) = x^d + c1 x^(d-1) + ... + cd by
    Faddeev-LeVerrier, exact: [1, c1, ..., cd]."""
    d = len(A)
    coeffs = [Fraction(1)]
    M = [[Fraction(0)] * d for _ in range(d)]
    for m in range(1, d + 1):
        # M_m = A M_(m-1) + c_(m-1) I
        M = [[sum(A[i][l] * M[l][j] for l in range(d)) + (coeffs[-1] if i == j else 0)
              for j in range(d)] for i in range(d)]
        tr = sum(A[i][l] * M[l][i] for i in range(d) for l in range(d))
        coeffs.append(-tr / m)
    return coeffs


def poly_eval(coeffs, x):
    """coeffs[0] x^d + ... + coeffs[d] by Horner's rule, in x's arithmetic."""
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def v_function(y: float, p: rk.VParams, contour: float = rk.DEFAULT_CONTOUR) -> float:
    """V_{1/2}(y) from its definition: the integral over Re(u) = contour of
    y^-u Gamma(a1 + u) Gamma(a2 + u) / (Gamma(a1) Gamma(a2)) exp(c_G u^2) / u,
    over 2 pi i, by mpmath quadrature at 30 digits on |Im u| <= 30."""
    def f(t):
        u = mp.mpf(contour) + 1j * t
        return (mp.e ** (-u * mp.log(y)) * mp.gamma(p.a1 + u) / mp.gamma(p.a1)
                * mp.gamma(p.a2 + u) / mp.gamma(p.a2) * mp.e ** (p.g_scale * u * u) / u)
    with mp.workdps(30):
        return float(mp.quad(f, [-30, 0, 30]).real / (2 * mp.pi))


def bessel_j_highprec(order: int, x, dps: int = 40):
    """J_order(x) by its ascending series in mpmath, to about dps digits
    relative; slow, used as an oracle.

    The sum stops at the first term below 10^-(dps+10) of the running total
    once the terms fall; the working precision carries x/2 extra digits for
    the cancellation of the largest terms."""
    extra = int(0.5 * x) + 30
    with mp.workdps(dps + extra):
        half = mp.mpf(x) / 2
        term = half ** order / mp.factorial(order)
        total = term
        j = 0
        x2 = half * half
        eps = mp.mpf(10) ** (-(dps + 10))
        while True:
            j += 1
            ratio = x2 / (j * (order + j))
            term *= -ratio
            total += term
            if ratio < 1 and abs(term) < eps * abs(total):
                break
            if j > 10 * int(x) + 200:
                break
        return +total


def bessel_j_mellin_barnes(order: int, x: float, sigma: float | None = None,
                           h: float = 0.05, t_max: float | None = None) -> float:
    """J_order(x) by the contour integral of the gamma quotient against (x/2)^s.

    Slow trapezoidal evaluation on Re(s) = sigma (default order/2); only a
    cross-check for the series/library paths.
    """
    if sigma is None:
        sigma = order / 2.0
    if not 0 < sigma < order - 1:
        raise ValueError("contour must satisfy 0 < sigma < order - 1")
    if t_max is None:
        # integrand decays like |t|^{-sigma-1}
        t_max = max(80.0, (1.0 / 1e-12) ** (1.0 / sigma))
    n = int(t_max / h)
    ts = np.arange(-n, n + 1) * h
    s = sigma + 1j * ts
    lg_num = sf.log_gamma((order - s) / 2.0)
    lg_den = sf.log_gamma((order + s) / 2.0 + 1.0)
    vals = np.exp(lg_num - lg_den + s * math.log(x / 2.0))
    # inverse Mellin of the transform pair carries ds/(4*pi*i)
    return float(np.real(np.sum(vals)) * h / (4.0 * math.pi))


def gamma_quotient_check(A: float, c: float, t: float) -> float:
    """|Gamma(A+c+it)/Gamma(A+it)| / |A+it|^c, the ratio of the shift lemma.

    The ratio is O(1) only for bounded |c|.  Over the accepted domain
    |c| < A/2 it is not bounded: at t = 0, Stirling gives growth like
    exp(A phi(c/A)) / sqrt(1 + c/A) with phi(x) = (1+x) log(1+x) - x, which
    is about exp(c^2/2A) while |c| << A and reaches 1.5e13 at A = 200,
    c = -99.
    """
    if not (A > 0 and abs(c) < A / 2):
        raise ValueError("require A > 0 and |c| < A/2")
    num = sf.log_gamma(complex(A + c, t))
    den = sf.log_gamma(complex(A, t))
    return math.exp((num - den).real - c * 0.5 * math.log(A * A + t * t))


def zeta_partial(s: complex, removed_primes=()) -> complex:
    """zeta(s) * prod_{p in removed_primes}(1 - p^-s) for Re(s) > 1, from
    mpmath's Riemann zeta at 30 digits."""
    s = complex(s)
    if s.real <= 1:
        raise ValueError("outside convergence region")
    with mp.workdps(30):
        val = mp.zeta(s)
        for p in removed_primes:
            val *= 1 - mp.mpf(p) ** (-s)
        return complex(val)


def petersson_rhs_q_paper_literal(m: int, n: int, k: int, c_max: int) -> float:
    """The unfolded form: C * sum over signed c of S(m,n;c)/|c| J(4 pi sqrt(mn)/|c|),
    with C = (-1)^{k/2} (2 pi)/2.  Test anchor for the folding constant."""
    sign = -1.0 if (k // 2) % 2 else 1.0
    C = sign * 2.0 * math.pi / 2.0
    x = 4.0 * math.pi * math.sqrt(m * n)
    acc = 0.0
    for c in range(-c_max, c_max + 1):
        if c == 0:
            continue
        # S(m, n; c) for c < 0: residues mod |c|, phases with signed denominator
        ac = abs(c)
        if ac == 1:
            s = 1.0
        else:
            inv = tf._inverse_table(ac)
            s = sum(math.cos(2.0 * math.pi * ((m * xx + n * inv[xx]) % ac) / c)
                    for xx in range(1, ac) if inv[xx] >= 0)
        acc += s / ac * sf.bessel_j(k - 1, x / ac)
    return (1.0 if m == n else 0.0) + C * acc


def kl_nf_exact_phase(field, alpha, beta, c) -> complex:
    """The number-field Kloosterman sum with exact rational phases, one residue
    at a time (slow; the independent cross-check of ``tracefmla._kl_nf_slots``)."""
    nc = abs(int(norm(c)))
    if nc > tf._KL_NF_CAP:
        raise ValueError(f"residue enumeration overflow: N(c) = {nc} > cap {tf._KL_NF_CAP}")
    if nc == 1:
        return complex(1.0, 0.0)
    delta = field.different_gen
    cc = tf._coords(c)
    x1, x2, b1, b2 = tf._residue_data(field, cc, tf._residue_box(field, cc))
    a, b = alpha / (delta * c), beta * delta / c
    total = 0.0 + 0.0j
    for i in range(len(x1)):
        xi = field.element(int(x1[i]), int(x2[i]))
        xb = field.element(int(b1[i]), int(b2[i]))
        frac = (trace(a * xi) + trace(b * xb)) % 1
        ang = 2.0 * math.pi * float(frac)
        total += complex(math.cos(ang), math.sin(ang))
    return total


def deligne_bound(m: int) -> int:
    """B(m) = sum of d(m/e^2)^2 over e with e^2 | m, each divisor count by
    trial division up to the square root."""
    def count(n):
        r = math.isqrt(n)
        return 2 * sum(1 for e in range(1, r + 1) if n % e == 0) - (r * r == n)
    return sum(count(m // (e * e)) ** 2 for e in range(1, math.isqrt(m) + 1)
               if m % (e * e) == 0)
