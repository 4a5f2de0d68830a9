"""High-precision special functions: log-gamma, digamma, J-Bessel, zeta data.

Everything the moment machinery needs from classical analysis lives here:

* complex log-gamma via Stirling with argument recursion (principal branch
  on the right half-plane, which is the only region the contour integrals
  visit), elementwise over an array, a scalar being a one-point call,
* real digamma,
* J-Bessel of integer order: one array kernel with no library J (forward
  recurrence from Hankel's J_0 and J_1 at or above max(order, 25), the
  ascending series up to 2 sqrt(order + 1), Miller's backward recurrence
  normalized by the Neumann sum between), and scalar J as a one-point call
  of it,
* the Laurent data at u = 0 of the Riemann zeta(2u+1), some Euler factors
  removed, that drives the diagonal-term residue of the moment over Q.

The slow references the tests check these against (an mpmath J series,
the Mellin-Barnes J, mpmath's zeta(s) with Euler factors removed, and the
gamma-quotient ratio of the contour-shift argument) live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "bessel_j",
    "bessel_j_array",
    "bessel_j_series_bound",
    "bessel_j_c_tail_bound",
    "zeta_laurent_at_center",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015328606

# Stirling's series below runs at Re(w) >= 10, where its remainder after the
# B_18 term is at most |B_20|/(20*19 |w|^19) sec^20(arg(w)/2) <= 1.4e-19
# (largest on the real axis).  A higher shift only adds cancellation against
# the recursion's logs.
_STIRLING_SHIFT = 10.0
# Bernoulli B_{2j}/(2j(2j-1)) for the Stirling series
_STIRLING_COEFFS = (
    1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188,
    -691.0 / 360360, 1.0 / 156, -3617.0 / 122400, 43867.0 / 244188,
)
_LN_SQRT_2PI = 0.9189385332046727418


def log_gamma(z):
    """Principal-branch log Gamma(z) for Re(z) > 0 via Stirling + recursion.

    Elementwise over an array of z, which gives a complex array of its
    shape; a scalar z is a one-point call and gives a complex.  Each point
    below Re = 10 is shifted up by the recursion Gamma(w + 1) = w Gamma(w),
    its logs summed in one masked array.  For Re(z) <= 0 the value is
    correct modulo 2*pi*i (enough for anything consumed through exp), and
    poles raise.
    """
    zs = np.asarray(z, dtype=complex)
    w = zs.ravel()
    if np.any((w.imag == 0) & (w.real <= 0) & (w.real == np.floor(w.real))):
        raise ValueError("gamma pole")
    # log Gamma(w) = log Gamma(w + n) - sum_{j<n} log(w + j), n steps to Re >= shift
    steps = np.maximum(np.ceil(_STIRLING_SHIFT - w.real), 0.0)
    j = np.arange(int(steps.max(initial=0.0)))
    shift = np.where(j < steps[:, None], np.log(w[:, None] + j), 0.0).sum(axis=1)
    w = w + steps
    lw = np.log(w)
    out = (w - 0.5) * lw - w + _LN_SQRT_2PI
    winv2 = 1.0 / (w * w)
    term = 1.0 / w
    for c in _STIRLING_COEFFS:
        out += c * term
        term *= winv2
    out -= shift
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def digamma(a: float) -> float:
    """psi(a) for real a > 0."""
    if a <= 0:
        raise ValueError("digamma requires a > 0")
    out = 0.0
    while a < 16.0:
        out -= 1.0 / a
        a += 1.0
    out += math.log(a) - 0.5 / a
    a2 = 1.0 / (a * a)
    # -sum B_{2j}/(2j a^{2j})
    out -= a2 * (1.0 / 12 + a2 * (-1.0 / 120 + a2 * (1.0 / 252 + a2 * (-1.0 / 240 + a2 / 132))))
    return out


# -- J-Bessel ----------------------------------------------------------------

def bessel_j_series_bound(order: int, x) -> np.ndarray:
    """Rigorous bound (x/2)^order / order! on |J_order(x)|, elementwise in
    x >= 0 for order >= 1; inf where it passes exp(700)."""
    with np.errstate(divide="ignore"):
        lg = order * np.log(np.asarray(x, dtype=float) / 2.0) - math.lgamma(order + 1)
    return np.where(lg > 700.0, np.inf, np.exp(np.minimum(lg, 700.0)))


def bessel_j_c_tail_bound(order: int, x, c_from: float) -> np.ndarray:
    """Rigorous bound on sum_{c > c_from} (x/2c)^order / order!, elementwise in x.

    The series bound of J_order(x/c) summed over the tail of c: with
    sum_{c > C} c^-order <= C^{1-order}/(order-1) (order >= 2) it is at most
    (x/2C)^order C / (order! (order-1)); inf where that passes exp(700).
    """
    lg = (order * np.log(np.asarray(x, dtype=float) / (2 * c_from)) - math.lgamma(order + 1)
          + math.log(c_from / (order - 1)))
    return np.where(lg > 700.0, np.inf, np.exp(np.minimum(lg, 700.0)))


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order >= 1, x >= 0: ``bessel_j_array`` at one point."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    return float(bessel_j_array(order, np.array([float(x)]))[0])


def bessel_j_array(order: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized J_order for integer order >= 0 over a nonnegative float array.

    Three paths, split by x; none calls a library J.

    * x >= max(order, 25): the forward recurrence J_{m+1}(x) = (2m/x) J_m(x)
      - J_{m-1}(x) up from Hankel's J_0 and J_1 (``_hankel_j01``).  It is
      stable while m <= x (Gautschi, SIAM Review 9 (1967)).
    * x <= 2 sqrt(order + 1): the ascending series (``_bessel_series``).
    * every other x: Miller's backward recurrence, normalized by the Neumann
      sum (``_bessel_miller``).
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.shape)
    up = xs >= max(order, _HANKEL_X0)
    low = xs <= 2.0 * math.sqrt(order + 1.0)
    mid = ~up & ~low
    low &= ~up
    if np.any(up):
        x = xs[up]
        prev, cur = _hankel_j01(x)
        two_over_x, new = 2.0 / x, np.empty_like(x)
        for m in range(1, order):
            np.multiply(two_over_x, cur, out=new)
            new *= m
            new -= prev
            prev, cur, new = cur, new, prev
        out[up] = cur if order >= 1 else prev
    if np.any(low):
        out[low] = _bessel_series(order, xs[low])
    if np.any(mid):
        out[mid] = _bessel_miller(order, xs[mid])
    return out


_SERIES_TERMS = 20
_MILLER_LOG_EPS = -60.0 * math.log(2.0)
_HANKEL_X0 = 25.0
_HANKEL_TERMS = 12


def _hankel_coeffs(nu: int) -> np.ndarray:
    """Rows (P, Q) of (-1)^k a_{2k}(nu) and (-1)^k a_{2k+1}(nu), k < _HANKEL_TERMS,
    a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k) (DLMF 10.17.1)."""
    a = [Fraction(1)]
    for k in range(1, 2 * _HANKEL_TERMS):
        a.append(a[-1] * Fraction(4 * nu * nu - (2 * k - 1) ** 2, 8 * k))
    return np.array([[float((-1) ** k * a[2 * k + r]) for k in range(_HANKEL_TERMS)]
                     for r in (0, 1)])


_HANKEL_PQ = np.concatenate([_hankel_coeffs(0), _hankel_coeffs(1)])  # P0, Q0, P1, Q1


def _hankel_j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_0(x), J_1(x)) for x >= 25 by Hankel's expansion (DLMF 10.17.3),

        J_nu(x) = sqrt(2/(pi x)) (P_nu(x) cos w - Q_nu(x) sin w),  w = x - nu pi/2 - pi/4,

    with P_nu = sum_{k<12} (-1)^k a_{2k}(nu) x^-2k and Q_nu = sum_{k<12}
    (-1)^k a_{2k+1}(nu) x^-2k-1, each by Horner's rule in 1/x^2.  The phase
    is never rounded: cos w and sin w are (cos x +- sin x)/sqrt 2, so
    J_0 = (P_0 (c + s) + Q_0 (c - s))/sqrt(pi x) and J_1 = (P_1 (s - c)
    + Q_1 (s + c))/sqrt(pi x) with c = cos x, s = sin x.

    Truncation (DLMF 10.17(iii)): for real nu >= 0 and x > 0 the remainder
    of either sum after l terms is at most its first neglected term, and of
    the same sign, once l >= max(nu/2 - 1/4, 1); here nu <= 1 and l = 12.
    So |J_nu - computed| <= sqrt(2/(pi x)) (|a_24(nu)| x^-24
    + |a_25(nu)| x^-25), which decreases in x and at x = 25 is below
    2.2e-19 < 2^-60 times sqrt(2/(pi x)), the envelope of J_0 and J_1.
    """
    w = 1.0 / (x * x)
    acc = np.repeat(_HANKEL_PQ[:, -1:], len(x), axis=1)
    for k in range(_HANKEL_TERMS - 2, -1, -1):
        acc *= w
        acc += _HANKEL_PQ[:, k:k + 1]
    p0, q0, p1, q1 = acc
    c, s = np.cos(x), np.sin(x)
    plus, minus = c + s, c - s
    inv_x = 1.0 / x
    amp = 1.0 / np.sqrt(math.pi * x)
    j0 = amp * (p0 * plus + (q0 * inv_x) * minus)
    j1 = amp * ((q1 * inv_x) * plus - p1 * minus)
    return j0, j1


def _bessel_series(order: int, x: np.ndarray) -> np.ndarray:
    """J_order(x) = t_0 sum_j (-q)^j / (j! (order+1)_j), q = (x/2)^2 <= order + 1.

    t_0 = (x/2)^order / order!.  Term j + 1 over term j is
    q / ((j+1)(order+j+1)) <= 1/(j+1), so the series alternates with terms
    below t_0/j!.  The sum over t_0 decreases in q on this range, and at
    q = order + 1 it is 0.283 for order 1, rising toward 1/e (mpmath, orders
    1..400), so the sum is at least t_0/4.  Twenty terms, summed by Horner's
    rule, leave a relative error below 4/20! < 2e-18.
    """
    q = 0.25 * x * x
    acc = np.ones_like(x)
    for j in range(_SERIES_TERMS - 1, 0, -1):
        acc = 1.0 - q * acc / (j * (order + j))
    if order <= 170:  # (x/2)^order <= (order+1)^(order/2) and order! stay finite
        lead = np.power(0.5 * x, order) / float(math.factorial(order))
    else:
        # a running product of (x/2)/j costs an ulp or so per factor; exp of
        # order log(x/2) - lgamma(order + 1) would turn the absolute rounding
        # of that exponent, hundreds in size, into relative error
        half, lead = 0.5 * x, np.ones_like(x)
        for j in range(1, order + 1):
            lead *= half / j
    return lead * acc


def _miller_start(order: int, x: float) -> int:
    """The least N >= max(order, q), q = floor(x) + 1, with

        A = P (2/(1 - s_{N+1}) + sqrt2 (N + 2)) <= 2^-60,   P = prod_{m=q}^{N+1} s_m,
        B = (1 + sqrt n) s_{N+1} prod_{m=n+1}^{N} s_m^2 <= 2^-60   (n = order),

    s_m = exp(-arccosh(m/x)); B is taken at min(x, order) and only for
    order >= 1.  Both fall as N grows and rise with x, so the start for the
    largest x serves every point; see ``_bessel_miller``."""
    q = math.floor(x) + 1
    first = max(order, q)
    span = 64
    while True:
        ns = np.arange(first, first + span)  # candidate N
        a = np.arccosh(np.arange(q, first + span + 1) / x)  # -log s_m, m = q..N+1
        a_next = a[ns + 1 - q]
        ok = (np.log(2.0 / -np.expm1(-a_next) + math.sqrt(2.0) * (ns + 2))
              - np.cumsum(a)[ns + 1 - q] <= _MILLER_LOG_EPS)
        if order >= 1:
            xb = min(x, float(order))
            b = np.arccosh(np.arange(order + 1, first + span + 2) / xb)  # m = order+1..
            b_sum = np.concatenate([[0.0], np.cumsum(b)])  # b_sum[j]: m = order+1..order+j
            ok &= (math.log1p(math.sqrt(order)) - b[ns - order] - 2.0 * b_sum[ns - order]
                   <= _MILLER_LOG_EPS)
        hits = np.flatnonzero(ok)
        if len(hits):
            return int(ns[hits[0]])
        span *= 2


def _bessel_miller(order: int, x: np.ndarray) -> np.ndarray:
    """J_order(x) for 2 sqrt(order+1) < x < max(order, 25) by Miller's backward
    recurrence, normalized by the Neumann sum.

    f_{N+1} = 0, f_N = 1 and f_{m-1} = (2m/x) f_m - f_{m+1} down to f_0, with
    N = ``_miller_start(order, max x)`` > x; the same loop sums
    S = f_0 + 2 sum_{m>=1} f_{2m}, and J_order = f_order / S, since
    1 = J_0 + 2 sum_{m>=1} J_{2m} (DLMF 10.12, the Neumann sum).

    Truncation error of the start index, in exact arithmetic (n = order;
    q = floor(x) + 1, the least index above x):

    1. The computed solution.  It vanishes at N + 1, so
       f_m = C (J_m - e Y_m) with e = J_{N+1}/Y_{N+1}, and the computed
       value is (J_n - e Y_n)/(1 - T - e sum_{even m<=N} w_m Y_m), with
       w_0 = 1, w_m = 2 and T = 2 sum_{even m>N} J_m.
    2. Ratios above x.  For m > x put a_m = 2m/x > 2 and r_m = J_m/J_{m-1};
       r_m = 1/(a_m - r_{m+1}).  The fixed point of r -> 1/(a_m - r) is
       s_m = exp(-arccosh(m/x)), decreasing in m, so the ratios of the
       solution that vanishes at K + 1 lie in [0, s_m] by induction down
       from K; r_m is their limit as K grows (J is the minimal solution;
       Pincherle, as in Gautschi 1967), so 0 < r_m <= s_m, and J_m > 0 for
       m >= q - 1.  With |J_{q-1}| <= 1, J_{N+1} <= P = prod_{m=q}^{N+1} s_m,
       and T <= 2 J_{N+1}/(1 - s_{N+1}) <= 2P/(1 - s_{N+1}).
    3. The Y terms.  Nicholson's integral (DLMF 10.9.30) makes
       M_m^2 = J_m^2 + Y_m^2 increase in m, so |Y_m| <= M_N for m <= N, and
       Y_{N+1}^2 >= M_N^2 - J_{N+1}^2 >= M_N^2/2, since J_{N+1} <= P < 2^-60
       and M_N^2 >= M_1^2 >= 2/(pi x) (x M_1^2 decreases to 2/pi, Watson 13.74).
       So |e| M_N <= sqrt2 J_{N+1} <= sqrt2 P, the denominator is 1 - D with
       |D| <= P (2/(1 - s_{N+1}) + sqrt2 (N + 1)), and |e Y_n| <= sqrt2 P.
    4. Order below x.  The error is at most (|e Y_n| + |D|)/(1 - |D|)
       absolute (|J_n| <= 1), below 2^-59 by condition A of
       ``_miller_start``; here x < 25 and |J| is of size sqrt(2/(pi x)) > 0.15.
    5. Order above x.  Relative to J_n the numerator is off by
       |e Y_n|/J_n = J_{N+1} |Y_n| / (|Y_{N+1}| J_n).  For m >= x, J_m > 0
       > Y_m (y_{m,1} > m, DLMF 10.21.3), so the Casoratian
       J_{m+1} Y_m - J_m Y_{m+1} = 2/(pi x) (DLMF 10.5.5) gives
       |Y_{N+1}| >= 2/(pi x J_N); with |Y_n| <= |Y_{n+1}| (M_m rises while
       J_m falls) it also gives J_n |Y_n| <= 2/(pi x (1 - r_{n+1}))
       <= 2 (1 + sqrt n)/(pi x), as r_{n+1} <= s_{n+1} <= exp(-1/sqrt n).
       So |e Y_n|/J_n <= (1 + sqrt n) J_N J_{N+1}/J_n^2, at most condition
       B, and the relative error is below 2^-58.

    Since s_m grows with x, the start index for the largest x serves every
    point; N is 70 at n = 59 and x = 16, 112 at n = 59 and x = 58.9, and 65
    at n = 0 and x = 25.  Rounding is the recurrence's own: backward it is
    stable above x and neutral below, and every term of S is at most about S
    itself (|J_m| <= 1), so the sum adds an ulp or so per term.  The values
    are rescaled whenever they pass 1e150, so nothing overflows.
    """
    start = _miller_start(order, float(np.max(x)))
    two_over_x = 2.0 / x
    hi, lo, new = np.zeros_like(x), np.ones_like(x), np.empty_like(x)  # f_{m+1}, f_m
    f_order = lo.copy()
    evens = np.zeros_like(x) if start % 2 else lo.copy()  # sum of f_{2m}, 2m >= 2
    for m in range(start, 0, -1):
        np.multiply(two_over_x, lo, out=new)
        new *= m
        new -= hi
        hi, lo, new = lo, new, hi
        if m - 1 == order:
            f_order = lo.copy()
        if m % 2 and m > 1:
            evens += lo
        if m % 16 == 0:
            scale = np.where(np.abs(lo) > 1e150, 1e-150, 1.0)
            for v in (hi, lo, f_order, evens):
                v *= scale
    return f_order / (lo + 2.0 * evens)


# -- zeta --------------------------------------------------------------------

def zeta_laurent_at_center(removed_primes=()) -> tuple[float, float]:
    """(gamma_-1, gamma_0) of zeta(2u+1) F(2u+1) = gamma_-1/(2u) + gamma_0 + O(u),

    zeta the Riemann zeta and F(s) = prod_{p removed} (1 - p^-s): gamma_-1 is
    F(1), and gamma_0 = gamma F(1) + F(1) F'(1)/F(1) with gamma Euler's
    constant, since zeta(1+w) = 1/w + gamma + O(w).
    """
    f1 = 1.0
    flog_deriv = 0.0   # F'(1)/F(1)
    for p in removed_primes:
        f1 *= 1 - 1.0 / p
        flog_deriv += math.log(p) / (p - 1)
    return f1, EULER_GAMMA * f1 + f1 * flog_deriv
