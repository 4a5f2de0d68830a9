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
evaluations over millions of points use a cubic spline in log y built on a
dense grid, and report their own interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .specialfn import log_gamma
from . import series as _series
from .modforms import Eigenform, NewformRecord

__all__ = [
    "VParams",
    "VQuadrature",
    "RankinSeries",
    "v_function",
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
V_DIRECT_MAX = 250_000  # VQuadrature.values takes the spline path above this many points
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

        The error is 0.0 unless the points are many enough for the spline path.
        """
        ys = np.asarray(ys, dtype=float)
        if len(ys) > V_DIRECT_MAX:
            return self._values_spline(ys)
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

    def _values_spline(self, ys: np.ndarray) -> tuple[np.ndarray, float]:
        lo, hi = float(np.min(ys)), float(np.max(ys))
        lo_l, hi_l = math.log(max(lo, 1e-12)), math.log(hi)
        npts = max(4096, int(1800 * (hi_l - lo_l) / math.log(10.0)))
        grid = np.linspace(lo_l - 1e-9, hi_l + 1e-9, npts)
        vals = self._values_direct(np.exp(grid))
        spline = CubicSpline(grid, vals)
        # empirical interpolation certificate on a random sample
        rng = np.random.default_rng(7)
        sample = rng.choice(ys, size=min(256, len(ys)), replace=False)
        direct = self._values_direct(sample)
        interp_err = float(np.max(np.abs(spline(np.log(sample)) - direct))) * 4.0
        return spline(np.log(ys)), interp_err

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


def _vq(p: VParams, contour: float = DEFAULT_CONTOUR) -> VQuadrature:
    return _series.memo(("V quadrature", p, contour), lambda: VQuadrature(p, contour))


def v_function(y: float, p: VParams, contour: float = DEFAULT_CONTOUR) -> float:
    """V_{1/2}(y) by contour quadrature."""
    return _vq(p, contour).value(y)


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
        m = len(self.b) - 1
        d3 = _series.divisor_count_sieve(m + 1) ** 3
        if np.any(np.abs(self.b[1:]) > d3[1:] * (1 + 1e-6) + 1e-9):
            raise ValueError("b_m exceeds the divisor-bound sanity threshold")

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
    """Smallest M with sum_{m>M} d(m)^3 m^{-1/2} |V(y_m)| < tol (envelope-certified)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if math.isinf(tol):
        return 1
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
    d3 = _series.divisor_count_sieve(m_far + 1)[1:] ** 3
    terms = d3 * env / np.sqrt(ms)
    rev_cum = np.cumsum(terms[::-1])[::-1]     # rev_cum[i] = sum_{m >= i+1}
    want = np.empty(m_far)                     # want[M-1] = sum_{m > M} + remainder
    want[: m_far - 1] = rev_cum[1:] + remainder
    want[m_far - 1] = remainder
    hit = np.nonzero(want <= tol)[0]
    if len(hit) == 0:
        raise UncertifiedError("effective_cutoff: tolerance unreachable",
                               certificate=float(want[-1]))
    m_cut = int(hit[0]) + 1
    # make the returned cutoff coherent with afe_tail_bound's own horizon
    while afe_tail_bound(p, m_cut) > tol and m_cut < _CUTOFF_M_FAR_CAP:
        m_cut = int(m_cut * 1.15) + 1
    return m_cut


def _beyond_far_bound(vq: VQuadrature, p: VParams, m_far: int) -> float:
    """Bound sum_{m>m_far} d(m)^3 m^{-1/2} |V| via d(m) <= sqrt(3m) and the
    tangent-line majorant of the (log-convex) envelope."""
    slope = vq.envelope_slope(p.afe_argument(float(m_far)))
    env_far = float(vq.envelope(p.afe_argument(float(m_far)))[0])
    if slope <= 3.1:
        return math.inf
    return 3 * math.sqrt(3) * env_far * (m_far ** 2 / (slope - 3.0) + m_far)


def afe_tail_bound(p: VParams, M: int) -> float:
    """Certified bound on sum_{m>M} d(m)^3 m^{-1/2} |V(y_m)|."""
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
    d3 = _series.divisor_count_sieve(m_far + 1)[M + 1:] ** 3
    return float(np.sum(d3 * env / np.sqrt(ms)) + remainder)


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
