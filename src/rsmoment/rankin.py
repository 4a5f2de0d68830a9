"""Rankin-Selberg coefficients, the AFE weight function V, and central values.

V_{1/2}(y) is the contour integral of y^{-u} gamma(1/2,u) G(u)/u over a
vertical line Re(u) = sigma > 0, with gamma(1/2,u) the ratio of archimedean
factors and G(u) = exp(c_G u^2) an even holomorphic damper, G(0)=1.  The
central value is the identity

    L(f x g, 1/2) = 2 sum_m b_m / sqrt(m) * V(4^n pi^{2n} m / Q),

independent of both c_G and the contour height; that independence is the
module's primary self-check.

Numerics: trapezoidal quadrature on the vertical line (the integrand is
analytic in a strip and Gaussian-decaying, so the trapezoid converges
geometrically).  The nodes are uniform, t_j = j h, so the quadrature sum
sum_j w_j y^{-(sigma + i t_j)} is y^{-sigma} P(z) with z = exp(-i h log y)
and P the polynomial whose coefficients are the weights; every evaluation
runs P by Horner's rule, one complex exp per point and no node matrix (a
scalar V is a one-point array).  Tiny y goes through the residue-split form
V = 1 + (shifted contour) to dodge float cancellation in y^{-sigma}; mass
evaluations over more than ``V_DIRECT_MAX`` points use a piecewise Chebyshev
interpolant of the quadrature sum in log y, and report a proved bound on its
error (Trefethen, ATAP Thm 8.2, on a Bernstein ellipse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specialfn import log_gamma
from . import series as _series
from .modforms import Eigenform, NewformRecord

__all__ = [
    "VParams",
    "VQuadrature",
    "RankinSeries",
    "b_coefficients",
    "effective_cutoff",
    "central_value",
    "CentralValue",
    "UncertifiedError",
    "DEFAULT_G_SCALE",
    "DEFAULT_CONTOUR",
]

DEFAULT_G_SCALE = 0.25
DEFAULT_CONTOUR = 1.5
V_DIRECT_MAX = 250_000  # VQuadrature.values interpolates above this many points
_LOG_SPLIT = math.log(0.1)  # the residue split of V: panel edges sit on it
_CHEB_WIDTH = 0.5  # interpolant panel width in log y (see VQuadrature._values_cheb)
_CHEB_DEGREE = 32
_CHEB_NODES = np.cos(np.pi * np.arange(_CHEB_DEGREE + 1) / _CHEB_DEGREE)  # second kind
# values at _CHEB_NODES -> Chebyshev coefficients: c_k = (2/n) sum''_j f_j T_k(x_j),
# with the end terms of the sum and the coefficients c_0, c_n halved
_CHEB_MATRIX = (2.0 / _CHEB_DEGREE) * np.cos(
    np.pi * np.outer(np.arange(_CHEB_DEGREE + 1), np.arange(_CHEB_DEGREE + 1)) / _CHEB_DEGREE)
_CHEB_MATRIX[[0, -1], :] *= 0.5
_CHEB_MATRIX[:, [0, -1]] *= 0.5
_CHEB_RHOS = np.geomspace(1.01, 1e4, 400)  # ellipse parameters tried for the bound
_CHEB_CHUNK = 16_384  # Clenshaw points per pass: its four arrays stay in cache (2x faster)
_SIGMA_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0,
               13.0, 17.0, 22.0, 28.0, 36.0, 45.0, 56.0, 70.0, 88.0, 110.0)  # envelope lines
_CUTOFF_M_FAR_CAP, _TAIL_M_FAR_CAP = 4_000_000, 8_000_000  # envelope-tail horizons


class UncertifiedError(RuntimeError):
    """A truncated quantity whose tail certificate exceeds the requested tolerance."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class VParams:
    """Archimedean data of the pair (f, g): weights, conductor, G-scale."""

    k_vec: tuple[int, ...]
    l_vec: tuple[int, ...]
    conductor: float = 1.0
    g_scale: float = DEFAULT_G_SCALE

    def __post_init__(self):
        if len(self.k_vec) != len(self.l_vec):
            raise ValueError("weight vectors must share a length")
        for kj, lj in zip(self.k_vec, self.l_vec):
            if kj % 2 or lj % 2:
                raise ValueError("weights must be even")
            if kj < lj:
                raise ValueError("weight constraint k_j >= l_j violated")
        if self.conductor < 1:
            raise ValueError("conductor must be >= 1")
        if self.g_scale <= 0:
            raise ValueError("g_scale must be positive")

    @property
    def degree(self) -> int:
        return len(self.k_vec)

    def gamma_shifts(self) -> list[tuple[float, float]]:
        """The (a1, a2) = ((|k-l|+1)/2, (k+l-1)/2) per embedding."""
        return [((abs(kj - lj) + 1) / 2.0, (kj + lj - 1) / 2.0)
                for kj, lj in zip(self.k_vec, self.l_vec)]

    def afe_argument(self, m) -> np.ndarray | float:
        n = self.degree
        return (4.0 ** n) * math.pi ** (2 * n) * m / self.conductor


def _log_gamma_quotient(p: VParams, u):
    """log of prod_j Gamma(a1 + u) Gamma(a2 + u) / (Gamma(a1) Gamma(a2)),
    elementwise in u."""
    out = 0.0
    for a1, a2 in p.gamma_shifts():
        out = out + (log_gamma(a1 + u) - log_gamma(a1)) + (log_gamma(a2 + u) - log_gamma(a2))
    return out


def _gamma_quotient_u(p: VParams, u):
    return np.exp(_log_gamma_quotient(p, u))


class VQuadrature:
    """Fixed-node trapezoid evaluation of V_{1/2} for one (params, contour)."""

    def __init__(self, p: VParams, contour: float = DEFAULT_CONTOUR):
        if contour <= 0:
            raise ValueError("contour height must be positive")
        self.p = p
        cg = p.g_scale
        # Gaussian tail of the t-integral beyond T, sized for 1e-13
        pref = abs(_gamma_quotient_u(p, complex(contour))) * math.exp(cg * contour ** 2)
        t_max = math.sqrt(max(1.0, math.log(max(pref, 1.0) / (1e-13 * contour)) / cg)) + 2.0
        self.line, tail = self._build(contour, 0.125, t_max)
        # residue-split nodes for tiny y: contour between u = 0 and the
        # nearest gamma pole at u = -min_j (|k_j-l_j|+1)/2, kept at least
        # 0.3 away from it so the trapezoid stays geometric
        a1_min = min(a1 for a1, _ in p.gamma_shifts())
        sigma_neg = -min(0.45, max(0.1, a1_min - 0.3))
        self.neg_line, neg_tail = self._build(sigma_neg, 0.05, t_max)
        self.quad_tail = max(tail, neg_tail)  # one tail covers either line
        # log of the line bound constant per sigma on the envelope grid
        s = np.array(_SIGMA_GRID)
        self._line_logs = (_log_gamma_quotient(p, s).real + cg * s * s
                           + 0.5 * math.log(math.pi / cg) - np.log(2 * math.pi * s))

    def _build(self, sigma: float, h: float, t_max: float):
        """One line: (weights, sigma, h) with node j at sigma + i j h, and the
        Gaussian tail of the t-integral past t_max."""
        n = int(t_max / h) + 1
        ts = np.arange(0, n + 1) * h
        us = sigma + 1j * ts
        cg = self.p.g_scale
        phi = _gamma_quotient_u(self.p, us) * np.exp(cg * us * us) / us
        # half weight at t=0; factor 2 for t<0 via Hermitian symmetry
        w = np.full(n + 1, h / math.pi)
        w[0] *= 0.5
        gam_line = abs(_gamma_quotient_u(self.p, complex(sigma)))
        tail = gam_line * math.exp(cg * (sigma * sigma - t_max * t_max)) \
            / (2 * math.pi * cg * t_max * abs(sigma))
        return (w * phi, sigma, h), tail

    # -- point evaluation --------------------------------------------------
    def value(self, y: float) -> float:
        """V(y) at one point: the Horner kernel at a one-point array."""
        if y <= 0:
            raise ValueError("y must be positive")
        return float(self._values_direct(np.array([float(y)]))[0])

    def values(self, ys: np.ndarray) -> tuple[np.ndarray, float]:
        """V at every point, and a bound on the interpolation error of this call.

        The error is 0.0 unless the points are many enough for the
        interpolant (``_values_cheb``).
        """
        ys = np.asarray(ys, dtype=float)
        if len(ys) > V_DIRECT_MAX:
            return self._values_cheb(ys)
        return self._values_direct(ys), 0.0

    def _values_direct(self, ys: np.ndarray) -> np.ndarray:
        out = np.empty(len(ys))
        small = ys < 0.1
        if np.any(small):
            # V(y) = 1 + the integral on the negative line (residue at u=0 is 1)
            out[small] = 1.0 + _horner_line(*self.neg_line, np.log(ys[small]))
        big = ~small
        if np.any(big):
            out[big] = _horner_line(*self.line, np.log(ys[big]))
        return out

    def _values_cheb(self, ys: np.ndarray) -> tuple[np.ndarray, float]:
        """V by a piecewise Chebyshev interpolant in xi = log y, with a proved
        bound on its error against the quadrature sum.

        Panels are [log 0.1 + p W, log 0.1 + (p+1) W), W = ``_CHEB_WIDTH``, so
        none straddles the residue split at y = 0.1.  On each panel that holds
        a point, the line sum F(xi) = Re sum_j w_j exp(-(sigma + i t_j) xi) of
        its side (``line`` at p >= 0, ``neg_line`` below, where V = 1 + F) is
        sampled at the n + 1 = ``_CHEB_DEGREE`` + 1 Chebyshev points of the
        second kind, and its interpolant is summed by Clenshaw's rule over the
        panel's points, one contiguous slice each (the points are sorted
        first unless they arrive so).

        Bound (Trefethen, *Approximation Theory and Approximation Practice*,
        Thm 8.2): if F, mapped to [-1, 1], is analytic in the Bernstein
        ellipse E_rho and |F| <= M there, the interpolant is within
        4 M rho^-n/(rho - 1) of F on the panel.  F is entire: for complex xi
        it is half the sum of w_j e^{-(sigma + i t_j) xi} and conj(w_j)
        e^{-(sigma - i t_j) xi}.  On a panel of centre c and half-width
        r = W/2, E_rho maps to |Re xi - c| <= r (rho + 1/rho)/2 and
        |Im xi| <= r (rho - 1/rho)/2, so with t_j >= 0

            M <= exp(-sigma c + |sigma| r (rho + 1/rho)/2)
                 sum_j |w_j| exp(t_j r (rho - 1/rho)/2).

        The bound of a line is the least over a grid of rho (``_cheb_log_bound``),
        and the call's bound is the largest over the panels it used: the
        lowest panel of ``line`` (sigma > 0) and the highest of ``neg_line``
        (sigma < 0).  It bounds the interpolation in exact arithmetic; the
        rounding is the direct sum's own at the nodes, spread by the
        Lebesgue constant (below 3.3 at degree 32), and the points' own xi
        are rounded as in the direct sum.

        Width and degree: the t_j run to t_max, about 14 at c_G = 1/4, and
        the weights fall like exp(-c_G t^2), so at W = 1/2 degree 32 puts the
        bound below 2e-42 on every ``long_series`` case ((24, 24) and
        (36, 36), 2^18 points) and below 1e-33 on y in [1e-3, 1e8] for
        k in {16, 18, 20, 22, 24, 36}, l in {12, k} and (c_G, contour) in
        {(1/4, 1), (1/4, 3/2), (1/4, 2), (1/2, 3/2), (1, 3/2), (2, 3/2)}: far
        below any certificate.  The time goes into n Clenshaw steps
        per point; a narrower panel allows a lower degree only slowly (the
        bound's rate grows with log(1/r)) and costs more panels of n + 1
        direct evaluations.
        """
        order = None
        if np.any(ys[1:] < ys[:-1]):
            order = np.argsort(ys, kind="stable")
            ys = ys[order]
        ly = np.log(ys)
        n_small = int(np.searchsorted(ys, 0.1))
        r = 0.5 * _CHEB_WIDTH
        out = np.empty(len(ys))
        bound = 0.0
        for neg, (w, sigma, h), lo, hi in ((True, self.neg_line, 0, n_small),
                                           (False, self.line, n_small, len(ys))):
            if lo == hi:
                continue
            # panel p holds log 0.1 + [p W, (p+1) W): p < 0 below the split
            ps = np.floor((ly[[lo, hi - 1]] - _LOG_SPLIT) / _CHEB_WIDTH)
            ps = np.minimum(ps, -1.0) if neg else np.maximum(ps, 0.0)
            ps = np.arange(ps[0], ps[1] + 1.0)
            cuts = np.concatenate([[lo], lo + np.searchsorted(
                ly[lo:hi], _LOG_SPLIT + _CHEB_WIDTH * ps[1:]), [hi]])
            used = cuts[1:] > cuts[:-1]
            centres = _LOG_SPLIT + (ps[used] + 0.5) * _CHEB_WIDTH
            vals = _horner_line(w, sigma, h, (centres[:, None] + r * _CHEB_NODES).ravel())
            coefs = vals.reshape(len(centres), -1) @ _CHEB_MATRIX
            for c, centre, start, end in zip(coefs, centres, cuts[:-1][used], cuts[1:][used]):
                for a in range(start, end, _CHEB_CHUNK):
                    b = min(a + _CHEB_CHUNK, end)
                    out[a:b] = _clenshaw(c, (ly[a:b] - centre) / r)
            worst = float(np.max(-sigma * centres))
            bound = max(bound, math.exp(_cheb_log_bound(w, sigma, h, r) + worst))
        out[:n_small] += 1.0
        if order is not None:
            out[order] = out.copy()
        return out, bound

    # -- rigorous-envelope machinery ----------------------------------------
    def envelope(self, y) -> np.ndarray:
        """Upper bound for |V(y)|: min over a sigma-grid of the line bound."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        ly = np.log(y)
        best = np.full(y.shape, np.inf)
        for s, lc in zip(_SIGMA_GRID, self._line_logs):
            best = np.minimum(best, lc - s * ly)
        return np.exp(np.clip(best, -745.0, 700.0))

    def envelope_slope(self, y: float) -> float:
        """The sigma attaining the envelope at y (= local decay exponent)."""
        ly = math.log(y)
        vals = [lc - s * ly for s, lc in zip(_SIGMA_GRID, self._line_logs)]
        return _SIGMA_GRID[int(np.argmin(vals))]


def _horner_line(weights: np.ndarray, sigma: float, h: float, ly: np.ndarray) -> np.ndarray:
    """Re sum_j w_j exp(-(sigma + i j h) ly) = exp(-sigma ly) Re P(exp(-i h ly))."""
    z = np.exp(-1j * h * ly)
    acc = np.full(len(ly), weights[-1])
    for w in weights[-2::-1]:
        acc *= z
        acc += w
    return np.exp(-sigma * ly) * acc.real


def _clenshaw(coefs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] T_k(s) by Clenshaw's recurrence, three array passes a step."""
    b1 = np.full(len(s), coefs[-1])
    b2 = np.zeros(len(s))
    tmp = np.empty(len(s))
    two_s = s + s
    for c in coefs[-2:0:-1]:
        np.multiply(two_s, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    np.multiply(s, b1, out=tmp)
    tmp -= b2
    tmp += coefs[0]
    return tmp


def _cheb_log_bound(weights: np.ndarray, sigma: float, h: float, r: float) -> float:
    """log of min over rho of 4 M' rho^-n/(rho - 1), M' = exp(|sigma| r (rho + 1/rho)/2)
    sum_j |w_j| exp(j h r (rho - 1/rho)/2): Thm 8.2's bound at a panel centre
    c = 0 and half-width r (see ``VQuadrature._values_cheb``)."""
    rho = _CHEB_RHOS[:, None]
    log_w = np.log(np.abs(weights))
    t = h * np.arange(len(weights))
    log_g = np.logaddexp.reduce(log_w + t * (r * 0.5 * (rho - 1.0 / rho)), axis=1)
    rho = rho[:, 0]
    logs = (math.log(4.0) + log_g + abs(sigma) * r * 0.5 * (rho + 1.0 / rho)
            - _CHEB_DEGREE * np.log(rho) - np.log(rho - 1.0))
    return float(np.min(logs))


def _vq(p: VParams, contour: float = DEFAULT_CONTOUR) -> VQuadrature:
    return _series.memo(("V quadrature", p, contour), lambda: VQuadrature(p, contour))


@dataclass
class RankinSeries:
    """Coefficients b_m of the Dirichlet series over plain integers."""

    b: np.ndarray
    k: int
    l: int
    level: int

    def __post_init__(self):
        if abs(self.b[1] - 1.0) > 1e-9:
            raise ValueError("b_1 must be 1 for normalized forms at coprime levels")
        bound = _series.deligne_bound_sieve(len(self.b))
        if np.any(np.abs(self.b[1:]) > bound[1:] * (1 + 1e-6) + 1e-9):
            raise ValueError("b_m exceeds Deligne's bound B(m), the sanity threshold")

    @property
    def length(self) -> int:
        return len(self.b) - 1


def b_coefficients(f, g: NewformRecord, M: int) -> RankinSeries:
    """b_m = sum_{d^2 | m, gcd(d, level)=1} C_f(m/d^2) C_g(m/d^2).

    Over Q an ideal of norm d coprime to the level is unique, so a_d is the
    coprimality indicator.
    """
    cf = f.cn if hasattr(f, "cn") else f
    cg = g.cn
    if len(cf) - 1 < M or len(cg) - 1 < M:
        raise ValueError("insufficient coefficients for requested length")
    prod = np.asarray(cf[: M + 1]) * np.asarray(cg[: M + 1])
    b = np.zeros(M + 1)
    d = 1
    while d * d <= M:
        if math.gcd(d, g.level) == 1:
            s = d * d
            j_max = M // s
            b[s:: s] += prod[1: j_max + 1]
        d += 1
    return RankinSeries(b=b, k=f.weight if hasattr(f, "weight") else 0,
                        l=g.weight, level=g.level)


def effective_cutoff(p: VParams, tol: float) -> int:
    """The least M at which sum_{m>M} B(m) m^{-1/2} |V(y_m)| is certified below
    tol, by ``afe_tail_bound`` and by the envelope sum of the search
    (``_cutoff_search``).  B(m) = sum_{d^2|m} d(m/d^2)^2 is Deligne's bound on
    |b_m| (``series.deligne_bound_sieve``)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if math.isinf(tol):
        return 1
    return _series.memo(("AFE cutoff", p, tol), lambda: _cutoff_search(p, tol, _series.deligne_bound_sieve))


def _cutoff_search(p: VParams, tol: float, majorant) -> int:
    """The least M that two tail bounds of sum_{m>M} majorant(m) m^{-1/2} |V(y_m)|
    both certify below tol: the envelope summed to a horizon m_far whose far
    remainder is below tol/8, and ``_tail_bound``, with its own horizon
    max(4M, 4096).

    The first bound falls with M, so prefix sums give its least certifying
    M, the guess; the least M at or above it that ``_tail_bound`` certifies
    is bracketed by steps that double from the guess and found by
    bisection, taking that bound, too, to fall as M grows.
    """
    vq = _vq(p)
    m_far = 1024
    while True:
        remainder = _beyond_far_bound(vq, p, m_far)
        if remainder < tol / 8:
            break
        if m_far >= _CUTOFF_M_FAR_CAP:
            raise UncertifiedError("effective_cutoff: envelope tail not certifiable",
                                   certificate=remainder)
        m_far *= 2
    ms = np.arange(1, m_far + 1, dtype=float)
    env = vq.envelope(p.afe_argument(ms))
    terms = majorant(m_far + 1)[1:] * env / np.sqrt(ms)
    rev_cum = np.cumsum(terms[::-1])[::-1]     # rev_cum[i] = sum_{m >= i+1}
    want = np.empty(m_far)                     # want[M-1] = sum_{m > M} + remainder
    want[: m_far - 1] = rev_cum[1:] + remainder
    want[m_far - 1] = remainder
    hit = np.nonzero(want <= tol)[0]
    if len(hit) == 0:
        raise UncertifiedError("effective_cutoff: tolerance unreachable",
                               certificate=float(want[-1]))
    # invariant: lo does not certify (lo = guess - 1 fails the first bound),
    # hi does; the first step is 1/64 of the guess, which is seldom further
    # than that from the least certifying M (1,680 against 1,690 at k = 40)
    lo, hi = int(hit[0]), int(hit[0]) + 1
    step = max(1, hi // 64)
    while (cert := _tail_bound(p, hi, majorant)) > tol:
        if hi >= _CUTOFF_M_FAR_CAP:
            raise UncertifiedError("effective_cutoff: tail bound not certifiable",
                                   certificate=cert)
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_bound(p, mid, majorant) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _beyond_far_bound(vq: VQuadrature, p: VParams, m_far: int) -> float:
    """Bound sum_{m>m_far} d(m)^3 m^{-1/2} |V| via d(m) <= sqrt(3m) and the
    tangent-line majorant of the (log-convex) envelope.  It bounds the same
    sum with B(m) <= d(m)^3 in place of d(m)^3."""
    slope = vq.envelope_slope(p.afe_argument(float(m_far)))
    env_far = float(vq.envelope(p.afe_argument(float(m_far)))[0])
    if slope <= 3.1:
        return math.inf
    return 3 * math.sqrt(3) * env_far * (m_far ** 2 / (slope - 3.0) + m_far)


def afe_tail_bound(p: VParams, M: int) -> float:
    """Certified bound on sum_{m>M} B(m) m^{-1/2} |V(y_m)|, B(m) = sum_{d^2|m}
    d(m/d^2)^2 (``series.deligne_bound_sieve``): Deligne's bound on |b_m|."""
    return _tail_bound(p, M, _series.deligne_bound_sieve)


def _tail_bound(p: VParams, M: int, majorant) -> float:
    """Certified bound on sum_{m>M} majorant(m) m^{-1/2} |V(y_m)|: the envelope
    summed to m_far = max(4M, 4096) (doubled until the far remainder is
    finite), plus ``_beyond_far_bound`` past it, valid for any majorant(m)
    <= d(m)^3."""
    vq = _vq(p)
    m_far = max(4 * M, 4096)
    remainder = _beyond_far_bound(vq, p, m_far)
    while not math.isfinite(remainder) and m_far < _TAIL_M_FAR_CAP:
        m_far *= 2
        remainder = _beyond_far_bound(vq, p, m_far)
    if not math.isfinite(remainder):
        return math.inf
    ms = np.arange(M + 1, m_far + 1, dtype=float)
    env = vq.envelope(p.afe_argument(ms))
    return float(np.sum(majorant(m_far + 1)[M + 1:] * env / np.sqrt(ms)) + remainder)


@dataclass
class CentralValue:
    value: float
    cutoff: int
    certificate: float


def central_value(f: Eigenform, g: NewformRecord, g_scale: float = DEFAULT_G_SCALE,
                  contour: float = DEFAULT_CONTOUR, tol: float = 1e-8,
                  cutoff: int | None = None, rigorous_tail: bool = True) -> CentralValue:
    """L(f x g, 1/2) by the approximate functional equation.

    The certificate combines the AFE tail bound at the chosen cutoff with
    the quadrature tail.  With ``rigorous_tail=False`` the cutoff is sized
    from the computed |b_m| themselves (used at scales where the divisor
    bound is needlessly pessimistic) and the certificate reports the
    empirical model.
    """
    if (f.weight == g.weight and g.level == 1
            and np.allclose(f.cn[1: min(f.length, g.length, 32) + 1],
                            g.cn[1: min(f.length, g.length, 32) + 1], atol=1e-10)):
        # L(f x f, s) has a pole at s = 1; the symmetric AFE identity only
        # holds for entire completed L, so f = g is out of contract.
        raise ValueError("Rankin-Selberg pair f = g has a polar L-function; "
                         "the symmetric approximate functional equation does not apply")
    p = VParams((f.weight,), (g.weight,), conductor=float(g.level), g_scale=g_scale)
    if cutoff is None:
        cutoff = effective_cutoff(p, tol / 2.0)
    if f.length < cutoff or g.length < cutoff:
        raise ValueError(f"insufficient coefficients: need {cutoff}")
    return _afe_sum(f, g, _afe_grid(p, contour, cutoff, rigorous_tail))


def _afe_grid(p: VParams, contour: float, cutoff: int, rigorous_tail: bool = True):
    """The part of the AFE sum no form enters, shared by every form of a weight.

    (p, V quadrature, sqrt(m), V(y_m), interpolation error, tail) for
    m = 1..cutoff; tail is afe_tail_bound(p, cutoff), or None when each form
    sizes its own (``rigorous_tail=False``).
    """
    vq = _vq(p, contour)
    ms = np.arange(1, cutoff + 1, dtype=float)
    vv, interp_err = vq.values(p.afe_argument(ms))
    tail = afe_tail_bound(p, cutoff) if rigorous_tail else None
    return p, vq, np.sqrt(ms), vv, interp_err, tail


def _afe_sum(f: Eigenform, g: NewformRecord, grid) -> CentralValue:
    """L(f x g, 1/2) and its certificate on one ``_afe_grid``."""
    p, vq, sqrt_ms, vv, interp_err, tail = grid
    cutoff = len(vv)
    rs = b_coefficients(f, g, cutoff)
    val = 2.0 * float(np.sum(rs.b[1:] / sqrt_ms * vv))
    if tail is None:
        env = float(vq.envelope(p.afe_argument(float(cutoff)))[0])
        slope = vq.envelope_slope(p.afe_argument(float(cutoff)))
        bbar = float(np.mean(np.abs(rs.b[max(1, cutoff // 2):]))) + 1.0
        tail = 2 * bbar * env * math.sqrt(cutoff) / max(slope - 0.5, 0.5)
    weight_mass = float(np.sum(np.abs(rs.b[1:]) / sqrt_ms))
    cert = 2.0 * tail + 2.0 * (vq.quad_tail + interp_err) * weight_mass
    return CentralValue(value=val, cutoff=cutoff, certificate=cert)
