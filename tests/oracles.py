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
from rsmoment import series


def evaluate(f, z: complex, tol: float = 1e-10):
    """(value, certified truncation bound) of f at z in the upper half-plane.

    The tail bound uses |a(n)| <= C0 * n^{(k+1)/2}, which is Deligne's bound
    (with d(n) <= n) for normalized eigenforms and for Delta; for other
    integer expansions C0 is calibrated on the computed coefficients and the
    bound is heuristic to that extent.
    """
    y = z.imag
    if y <= 0:
        raise ValueError("need Im z > 0")
    k = f.weight
    alpha = (k + 1) / 2.0
    if isinstance(f, mf.Eigenform):
        M = f.length
        coeff = lambda n: f.cn[n] * n ** ((k - 1) / 2.0)
        c0 = 1.0
    elif isinstance(f, mf.QExpansion):
        M = f.length
        coeff = lambda n: float(f.an[n])
        c0 = max(1.0, max(abs(float(f.an[n])) / n ** alpha for n in range(1, M + 1)))
    else:
        raise TypeError("evaluate expects QExpansion or Eigenform")
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
        val += coeff(n) * qn
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


def real_roots_fraction(coeffs: list[Fraction]) -> list[mp.mpf]:
    """The real roots of a squarefree integer polynomial by Sturm bisection
    in ``Fraction`` arithmetic, p(lo) evaluated afresh at every step, then
    the same Newton polish as ``modforms._real_roots_exact``."""
    d = len(coeffs) - 1
    bound = Fraction(1) + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0])
    chain = mf._sturm_chain(coeffs)

    def changes(x):
        signs = [1 if v > 0 else -1 for v in (mf._poly_eval(p, x) for p in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    intervals = [(-bound, bound)]
    isolated = []
    while intervals:
        a, b = intervals.pop()
        n = changes(a) - changes(b)
        if n == 0:
            continue
        if n == 1:
            isolated.append((a, b))
            continue
        mid = (a + b) / 2
        if mf._poly_eval(coeffs, mid) == 0:
            isolated.append((mid, mid))
            mid_eps = (b - a) / (4 * (d + 1))
            intervals.append((a, mid - mid_eps))
            intervals.append((mid + mid_eps, b))
        else:
            intervals.append((a, mid))
            intervals.append((mid, b))
    roots = []
    with mp.workdps(80):
        fc = [mp.mpf(c.numerator) / c.denominator for c in coeffs]
        for a, b in sorted(isolated):
            if a == b:
                roots.append(mp.mpf(a.numerator) / a.denominator)
                continue
            lo, hi = a, b
            for _ in range(80):
                mid = (lo + hi) / 2
                v = mf._poly_eval(coeffs, mid)
                if v == 0:
                    lo = hi = mid
                    break
                if (mf._poly_eval(coeffs, lo) > 0) == (v > 0):
                    lo = mid
                else:
                    hi = mid
            x = mp.mpf(lo.numerator) / lo.denominator if lo == hi else \
                (mp.mpf(lo.numerator) / lo.denominator + mp.mpf(hi.numerator) / hi.denominator) / 2
            for _ in range(8):
                pv = mf._poly_eval(fc, x)
                dv = mf._poly_eval([c * (d - i) for i, c in enumerate(fc[:-1])], x)
                x = x - pv / dv
            roots.append(x)
    return roots
