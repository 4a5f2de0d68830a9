"""The twisted first moment and its diagonal/off-diagonal decomposition.

The eigenform side sum_f L(f x g, 1/2) C_f(p) omega_f equals, by the
approximate functional equation plus the Petersson formula, a diagonal term

    M = 2 C_g(p)/sqrt(p) * sum_{gcd(d, N) = 1} V(4 pi^2 p d^2 / N)/d,

N the level of g, and an off-diagonal term E built from Kloosterman sums
against J-Bessel factors.  M also has a closed residue form via the Laurent
data of zeta(2u+1) and digamma values; the difference is the shifted-contour
remainder, of size O(1/k).  Everything here carries propagated truncation
certificates, and the identity residual |LHS - M - E| is checked against
the combined certificate on every report.

The harmonic weights omega_f are not computed from Petersson norms: they
are solved from the trace formula itself on the probe pairs (m, 1),
m = 1..dim S_k, and cross-validated on held-out pairs, which keeps the
check honest (an inconsistent solve cannot reproduce held-out trace data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series as _series
from .modforms import Eigenform, dim_cusp, eigenforms
from .rankin import (DEFAULT_CONTOUR, DEFAULT_G_SCALE, V_DIRECT_MAX, UncertifiedError,
                     VParams, _afe_grid, _afe_sum, _cutoff_search, _vq, effective_cutoff)
from .specialfn import bessel_j_array, bessel_j_c_tail_bound, digamma, zeta_laurent_at_center
from .tracefmla import CertValue, kloosterman_row, petersson_rhs_q

__all__ = [
    "OmegaWeights",
    "MomentReport",
    "ScanResult",
    "omega_weights",
    "m_term_direct",
    "m_term_residue",
    "e_term",
    "lhs_moment",
    "moment_report",
    "recover_coefficient",
    "asymptotic_scan",
    "scan_to_csv",
    "CSV_HEADER",
]

_HELD_OUT_PAIRS = ((2, 3), (3, 5), (4, 9), (2, 8))


@dataclass
class OmegaWeights:
    """Harmonic weights solved from the trace formula on probe indices."""

    weight: int
    omega: np.ndarray
    probe_set: tuple[int, ...]
    condition_estimate: float
    certificate: float
    rhs_diag: float  # petersson_rhs_q(1,1,k), equals sum omega_f


@dataclass
class MomentReport:
    weight: int
    p: int
    m_direct: float
    m_residue: float
    e_value: float
    lhs: float
    identity_residual: float
    recovered_c: float
    cert_total: float

    def __post_init__(self):
        for v in (self.m_direct, self.m_residue, self.e_value, self.lhs,
                  self.identity_residual, self.cert_total):
            if not math.isfinite(v):
                raise ValueError("non-finite entry in moment report")


_OMEGA_TOL = 1e-8  # relative tolerance of the held-out pair check
_OMEGA_RHS_TOL = 1e-11  # truncation tolerance of every Petersson right side


def omega_weights(k: int) -> OmegaWeights:
    """Solve sum_f omega_f C_f(m) = rhs(m, 1), m = 1..dim S_k, and
    cross-validate held-out pairs."""
    return _series.memo(("omega", k), lambda: _solve_omega(k))


def _solve_omega(k: int) -> OmegaWeights:
    d = dim_cusp(k)
    if d == 0:
        raise ValueError("empty space")
    forms = eigenforms(k, max(72, 2 * d + 8))
    probes = range(1, d + 1)
    A = np.array([[f.c(m) for f in forms] for m in probes])
    rhs = [petersson_rhs_q(m, 1, k, tol=_OMEGA_RHS_TOL) for m in probes]
    bvec = np.array([r.value for r in rhs])
    cond = float(np.linalg.cond(A))
    if cond > 1e8:
        raise ValueError(f"omega solve ill-conditioned (cond {cond:.2e})")
    omega = np.linalg.solve(A, bvec)
    cert = cond * max(r.certificate for r in rhs) * math.sqrt(d)
    if np.any(omega <= 0):
        raise ValueError("trace formula inconsistency: nonpositive harmonic weight")
    for (m, n) in _HELD_OUT_PAIRS:
        lhs_val = float(sum(w * f.c(m) * f.c(n) for w, f in zip(omega, forms)))
        rv = petersson_rhs_q(m, n, k, tol=_OMEGA_RHS_TOL)
        if abs(lhs_val - rv.value) > _OMEGA_TOL * max(1.0, abs(rv.value)) + cert + rv.certificate:
            raise ValueError(
                f"trace formula inconsistency at held-out pair {(m, n)}: "
                f"|{lhs_val:.12g} - {rv.value:.12g}|")
    return OmegaWeights(weight=k, omega=omega, probe_set=tuple(probes),
                        condition_estimate=cond, certificate=cert,
                        rhs_diag=rhs[0].value)


def _validate_pair(g: Eigenform, p: int, k: int):
    if k <= g.weight:
        raise ValueError("weight constraint k_j > l_j violated")
    if p != 1:
        if _series.prime_divisors(p) != (p,):
            raise ValueError("p must be 1 or prime")
        if g.level % p == 0:
            raise ValueError("p must not divide the level of g")


def _w_sum(vp: VParams, nus: np.ndarray, tol: float):
    """W(nu) = sum_{gcd(d,N)=1} V(4 pi^2 nu d^2 / N)/d, N = ``vp.level``, at
    ascending nus, certified.

    The d range ends at the first coprime d >= 4 with envelope(nus[0])/d < tol,
    searched on blocks of d, one envelope call per block.  Returns
    (W, cert, d_end): the terms d < d_end are summed, and cert bounds the
    error of every W(nu).

    The d-tail is proved.  |V| <= envelope, which falls in y, so nus[0]
    bounds every row.  The envelope is summed over d_end <= d < D = 8 d_end.
    Past D it is at most its line at y_D = afe(nus[0] D^2), of slope
    sigma_D, and sum_{d >= D} (D/d)^(2 sigma_D)/d <= 1/D + 1/(2 sigma_D).
    """
    vq = _vq(vp)
    start, size = 1, 64
    while True:
        block = np.arange(start, start + size)
        envs = vq.envelope(vp.afe_argument(nus[0] * block * block))
        stop = np.nonzero((envs / block < tol) & (block >= 4) & (np.gcd(block, vp.level) == 1))[0]
        if len(stop):
            d = int(block[stop[0]])
            break
        start += size
        size *= 2
        if start > 10 ** 6:
            raise UncertifiedError("d-sum failed to certify")
    ds = [e for e in range(1, d) if math.gcd(e, vp.level) == 1]
    # the d-tail (above), and the quadrature tail once per term,
    # sum_{d' < d} 1/d' <= 1 + log d
    D = 8 * d
    near = np.arange(d, D)
    near = near[np.gcd(near, vp.level) == 1]
    y_D = vp.afe_argument(nus[0] * D * D)
    cert = (float(np.sum(vq.envelope(vp.afe_argument(nus[0] * near * near)) / near))
            + float(vq.envelope(y_D)[0]) * (1.0 / D + 0.5 / vq.envelope_slope(y_D))
            + vq.quad_tail * (1.0 + math.log(d)))
    W = np.zeros(len(nus))
    # whole d-rows per V call, at most V_DIRECT_MAX points (one row, on the
    # interpolant path, when the nus alone are more)
    rows = max(1, V_DIRECT_MAX // len(nus))
    for i in range(0, len(ds), rows):
        block = np.array(ds[i: i + rows], dtype=float)
        vals, interp_err = vq.values(vp.afe_argument(np.outer(block * block, nus)).ravel())
        for e, row in zip(block, vals.reshape(len(block), -1)):
            W += row / e
        cert += interp_err * float(np.sum(1.0 / block))
    return W, cert, d


_RECOVERY_W_TOL = 1e-10 / 16  # W(p) stop rule of the recovery, and of M in a report


def _w_at_p(g: Eigenform, p: int, k: int, g_scale: float, tol: float):
    """(W(p), certificate): ``_w_sum`` at the one nu = p."""
    W, cert, _ = _w_sum(VParams(k, g.weight, g.level, g_scale), np.array([float(p)]), tol)
    return float(W[0]), cert


def _m_from_w(g: Eigenform, p: int, w: float, w_cert: float) -> CertValue:
    pref = 2.0 * g.c(p) / math.sqrt(p)
    return CertValue(value=pref * w, certificate=abs(pref) * w_cert)


def m_term_direct(g: Eigenform, p: int, k: int,
                  g_scale: float = DEFAULT_G_SCALE, tol: float = 1e-9) -> CertValue:
    """M = 2 C_g(p)/sqrt(p) * sum_d a_d/d V(...), truncated by V-decay."""
    _validate_pair(g, p, k)
    return _m_from_w(g, p, *_w_at_p(g, p, k, g_scale, tol / 16))


def m_term_residue(g: Eigenform, p: int, k: int) -> float:
    """The contour-shift residue form of M (the O(1/k) remainder not added)."""
    _validate_pair(g, p, k)
    gm1, g0 = zeta_laurent_at_center(_series.prime_divisors(g.level))
    l = g.weight
    arg = 4.0 * math.pi ** 2 * p / g.level
    res = g0 + 0.5 * gm1 * (digamma((k - l + 1) / 2.0) + digamma((k + l - 1) / 2.0)
                            - math.log(arg))
    return 2.0 * g.c(p) / math.sqrt(p) * res


_E_SKIP_SHARE = 1e-4  # of the E certificate, spent on skipped (nu, c) points


def e_term(g: Eigenform, p: int, k: int, g_scale: float = DEFAULT_G_SCALE,
           tol: float = 1e-6, nu_cutoff: int | None = None) -> CertValue:
    """Off-diagonal term: 4 pi (-1)^{k/2} sum_nu sum_c S(nu,p;c)/c J_{k-1} * weights.

    With |S(nu,p;c)| <= c and |J_{k-1}(y)| <= (y/2)^{k-1}/(k-1)!, the (nu, c)
    term is at most c^-(k-1) B_nu, B_nu = |wt_nu| (x_nu/2)^{k-1}/(k-1)!.
    Row c skips the longest prefix of nus whose bound mass
    c^-(k-1) sum_{nu' < nu0} B_nu' is at most _E_SKIP_SHARE of the
    certificate before skipping, over cmax, and the skipped mass joins the
    c-tail: skipping raises the certificate by at most that share.  The nu
    range ends at ``nu_cutoff``, or by default at ``_e_nu_range``.
    """
    _validate_pair(g, p, k)
    vp = VParams(k, g.weight, g.level, g_scale)
    M = nu_cutoff or _e_nu_range(vp, tol)
    if g.length < M:
        raise ValueError(f"need C_g up to {M}")
    nu_idx = np.arange(1, M + 1)
    nus = nu_idx.astype(float)
    W, w_cert, _ = _w_row(vp, M, tol)
    cg = np.asarray(g.cn[: M + 1])
    wt = cg[1:] * W / np.sqrt(nus)
    x_all = 4.0 * math.pi * np.sqrt(nus * p)
    x_max = float(x_all[-1])
    # c-range: certified by the J-series bound with |S(nu,p;c)| <= c
    cmax = _e_cmax(k, x_max, np.abs(wt), tol / 4.0)
    c_tail = float(np.sum(np.abs(wt) * bessel_j_c_tail_bound(k - 1, x_all, cmax)))
    # nu-tail: |C_g| <= d(nu); c-sum bounded by counting oscillatory c's
    nu_tail = _e_nu_tail(vp, p, k, M)
    dsum_mass = float(np.sum(np.abs(cg[1:]) / np.sqrt(nus)))
    budget = _E_SKIP_SHARE * (c_tail + nu_tail + dsum_mass * w_cert)
    # row c skips its first cut[c - 1] nus: one search in the running log of sum B_nu
    with np.errstate(divide="ignore"):
        log_b = np.log(np.abs(wt)) + (k - 1) * np.log(x_all / 2.0) - math.lgamma(k)
    log_mass = np.logaddexp.accumulate(log_b)
    log_cpow = (k - 1) * np.log(np.arange(1, cmax + 1))
    cut = np.searchsorted(log_mass, math.log(budget / cmax) + log_cpow, side="right")
    c_tail += float(np.sum(np.exp(log_mass[cut[cut > 0] - 1] - log_cpow[cut > 0])))
    kept = [(c, int(lo)) for c, lo in enumerate(cut, 1) if lo < M]
    # every kept point of every row, in one J call
    xs = [x_all[lo:] / c for c, lo in kept]
    bj = bessel_j_array(k - 1, np.concatenate(xs)) if xs else None
    acc, at = 0.0, 0
    for c, lo in kept:
        row = kloosterman_row(p, c)
        acc += float(np.dot(wt[lo:] * row[nu_idx[lo:] % c], bj[at: at + M - lo])) / c
        at += M - lo
    sign = -1.0 if (k // 2) % 2 else 1.0
    value = 4.0 * math.pi * sign * acc
    cert = 4.0 * math.pi * (c_tail + nu_tail + dsum_mass * w_cert)
    if cert > 50 * tol:
        raise UncertifiedError(f"e_term certificate {cert:.2e} far above tol", cert)
    return CertValue(value=value, certificate=cert)


def _e_nu_range(vp: VParams, tol: float) -> int:
    """E's default nu range at e_term's tol: the least M whose AFE tail, with
    |b_m| majorized by d(m)^3, is below tol/16.

    It keeps d(m)^3 where the LHS cutoff reads Deligne's sharper B(m): the
    shorter range B gives would move mass from the summed nus into the
    nu-tail, whose bound is far looser, and raise E's certificate about 3x.
    """
    return _series.memo(("E nu range", vp, tol), lambda: _cutoff_search(
        vp, tol / 16.0, lambda n: _series.divisor_count_sieve(n) ** 3))


def _w_row(vp: VParams, M: int, tol: float):
    """``_w_sum`` at nu = 1..M and tol 1e-4 of e_term's: one build per weight,
    shared by every twist p."""
    return _series.memo(("W row", vp, M, tol), lambda: _w_sum(
        vp, np.arange(1, M + 1, dtype=float), tol * 1e-4))


def _e_cmax(k: int, x_max: float, wt_abs: np.ndarray, tol: float) -> int:
    c = max(8, int(x_max / (k - 1)) + 1)
    total_wt = float(np.sum(wt_abs)) + 1e-300
    while float(bessel_j_c_tail_bound(k - 1, x_max, c)) >= tol / total_wt:
        c *= 2
        if c > 10 ** 7:
            raise UncertifiedError("e_term: c-range not certifiable")
    return c


def _e_nu_tail(vp: VParams, p: int, k: int, M: int) -> float:
    """sum_{nu > M} d(nu) W_env(nu)/sqrt(nu) * bound(sum_c |S|/c J(4 pi sqrt(nu p)/c))."""
    far = 8 * M
    mass, slope = _nu_tail_row(vp, M)
    if slope < 3.0:
        return math.inf
    nus = np.arange(M + 1, far + 1, dtype=float)
    x = 4.0 * math.pi * np.sqrt(nus * p)
    # c with x/c >= (k-1)/2 contribute at most 0.7 each; the rest are series-bounded
    c_split = np.maximum(1.0, 2.0 * x / (k - 1))
    csum_bound = 0.7 * (np.log(c_split) + 1.0) + 1.0 / (k - 2)
    terms = mass * csum_bound
    remainder = float(terms[-1]) * far / (slope - 2.0)
    return float(np.sum(terms)) + remainder


def _nu_tail_row(vp: VParams, M: int):
    """The part of ``_e_nu_tail`` no twist enters: d(nu) W_env(nu)/sqrt(nu) over
    M < nu <= 8M, and the envelope slope at 8M: one build per weight."""
    def build():
        vq = _vq(vp)
        far = 8 * M
        nus = np.arange(M + 1, far + 1, dtype=float)
        env = vq.envelope(vp.afe_argument(nus)) * 2.0  # d-sum mass <= 2 * leading term
        dcnt = _series.divisor_count_sieve(far + 1)[M + 1:]
        return dcnt * env / np.sqrt(nus), vq.envelope_slope(vp.afe_argument(float(far)))
    return _series.memo(("nu-tail row", vp, M), build)


def lhs_moment(g: Eigenform, p: int, k: int, g_scale: float = DEFAULT_G_SCALE,
               afe_tol: float = 1e-8) -> CertValue:
    """sum over eigenforms of L(f x g, 1/2) C_f(p) omega_f, with certificate."""
    _validate_pair(g, p, k)
    if dim_cusp(k) == 0:
        return CertValue(value=0.0, certificate=0.0)
    vp = VParams(k, g.weight, g.level, g_scale)
    cutoff = effective_cutoff(vp, afe_tol / 2.0)
    if g.length < cutoff:
        raise ValueError(f"need C_g up to {cutoff}")
    forms = eigenforms(k, cutoff)
    ow = omega_weights(k)
    # the grid depends on the weight alone, so every twist p reads one build
    grid = _series.memo(("AFE grid", vp, DEFAULT_CONTOUR, cutoff),
                        lambda: _afe_grid(vp, DEFAULT_CONTOUR, cutoff))
    total, cert = 0.0, 0.0
    lsum = 0.0
    for w, f in zip(ow.omega, forms):
        cv = _afe_sum(f, g, grid)
        if cv.value < -1e-6:
            import warnings
            warnings.warn(f"negative central value L = {cv.value:.3e} at k={k} "
                          f"(index {f.index}); expected nonnegative for self-dual pairs")
        total += w * f.c(p) * cv.value
        cert += abs(w * f.c(p)) * cv.certificate
        lsum += abs(cv.value * f.c(p))
    cert += ow.certificate * lsum / max(ow.rhs_diag, 1e-9)
    cert += max(f.float_rel for f in forms) * 4.0 * sum(abs(w) for w in ow.omega)
    return CertValue(value=total, certificate=cert)


def recover_coefficient(g: Eigenform, p: int, k: int,
                        g_scale: float = DEFAULT_G_SCALE) -> float:
    """C_g(p) back out of the moment identity: sqrt(p)(LHS - E)/(2 sum_d a_d/d V)."""
    return moment_report(g, p, k, g_scale=g_scale).recovered_c


def moment_report(g: Eigenform, p: int, k: int,
                  g_scale: float = DEFAULT_G_SCALE,
                  afe_tol: float = 1e-8, e_tol: float = 1e-6) -> MomentReport:
    """M, E, the LHS and the recovered C_g(p) at one (p, k).  W(p) is evaluated
    once, at the recovery's stop rule (tighter than ``m_term_direct``'s), and
    serves both M and the recovery."""
    _validate_pair(g, p, k)
    w, w_cert = _w_at_p(g, p, k, g_scale, _RECOVERY_W_TOL)
    md = _m_from_w(g, p, w, w_cert)
    mr = m_term_residue(g, p, k)
    ev = e_term(g, p, k, g_scale=g_scale, tol=e_tol)
    lh = lhs_moment(g, p, k, g_scale=g_scale, afe_tol=afe_tol)
    resid = lh.value - md.value - ev.value
    cert = lh.certificate + md.certificate + ev.certificate
    denom = 2.0 * w / math.sqrt(p)
    if abs(denom) < 1e-8:
        raise ValueError("degenerate recovery")
    rec = (lh.value - ev.value) / denom
    return MomentReport(weight=k, p=p, m_direct=md.value, m_residue=mr,
                        e_value=ev.value, lhs=lh.value,
                        identity_residual=resid, recovered_c=rec,
                        cert_total=cert)


@dataclass
class ScanResult:
    reports: list[MomentReport]
    slope: float
    intercept: float
    slope_theoretical: float
    max_abs_residual_from_fit: float


def asymptotic_scan(g: Eigenform, p: int, k_list,
                    g_scale: float = DEFAULT_G_SCALE,
                    afe_tol: float = 1e-7,
                    e_tol: float = 1e-5) -> ScanResult:
    """Per-weight MomentReports, in the order of ``k_list``, plus the
    least-squares log-slope of the LHS.

    The reports are computed longest weight first, so every grow-only exact
    series is built once, at its longest request, and the lower weights read
    prefixes of it.
    """
    k_list = list(k_list)
    by_k = {k: moment_report(g, p, k, g_scale=g_scale, afe_tol=afe_tol, e_tol=e_tol)
            for k in sorted(set(k_list), reverse=True)}
    reports = [by_k[k] for k in k_list]
    lk = np.array([math.log(r.weight) for r in reports])
    lhs = np.array([r.lhs for r in reports])
    A = np.vstack([lk, np.ones_like(lk)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, lhs, rcond=None)
    gm1, _ = zeta_laurent_at_center(_series.prime_divisors(g.level))
    a_theory = 2.0 * g.c(p) / math.sqrt(p) * gm1
    resid = float(np.max(np.abs(lhs - (slope * lk + intercept))))
    return ScanResult(reports=reports, slope=float(slope), intercept=float(intercept),
                      slope_theoretical=a_theory, max_abs_residual_from_fit=resid)


CSV_HEADER = "k,p,M_direct,M_residue,E,LHS,residual,recovered_C,cert_total"


def report_csv_row(r: MomentReport) -> str:
    vals = (r.m_direct, r.m_residue, r.e_value, r.lhs,
            r.identity_residual, r.recovered_c, r.cert_total)
    return f"{r.weight},{r.p}," + ",".join(f"{v:.15g}" for v in vals)


def scan_to_csv(result: ScanResult) -> str:
    lines = [CSV_HEADER]
    lines += [report_csv_row(r) for r in result.reports]
    return "\n".join(lines) + "\n"
