import math

import numpy as np
import pytest

from rsmoment import modforms as mf
from rsmoment import moments as mo
from rsmoment import series
from rsmoment.rankin import central_value
from rsmoment.specialfn import (EULER_GAMMA, bessel_j_array, bessel_j_c_tail_bound,
                                digamma)
from rsmoment.tracefmla import petersson_rhs_q

E_TOL = 1e-6  # e_term's default tol


@pytest.fixture(scope="module")
def delta_record():
    return mf.newform_from_eigenform(mf.eigenforms(12, 60000)[0])


def test_omega_dim_one_equals_diagonal_rhs():
    ow = mo.omega_weights(12)
    rhs = petersson_rhs_q(1, 1, 12)
    assert len(ow.omega) == 1
    assert abs(ow.omega[0] - rhs.value) < 1e-12
    assert ow.omega[0] > 0


def test_omega_k24_held_out_validation():
    ow = mo.omega_weights(24)
    forms = mf.eigenforms(24, 64)
    for (m, n) in ((2, 3), (3, 5), (4, 9), (2, 8)):
        lhs = sum(w * f.c(m) * f.c(n) for w, f in zip(ow.omega, forms))
        rhs = petersson_rhs_q(m, n, 24)
        assert abs(lhs - rhs.value) <= 1e-8 * max(1.0, abs(rhs.value))
    assert np.all(ow.omega > 0)


@pytest.mark.parametrize("k", [76, 120])
def test_omega_past_five_forms_held_out_validation(k):
    # d = 6 and 10: one probe per form, m = 1..d, and the held-out pairs
    ow = mo.omega_weights(k)
    d = mf.dim_cusp(k)
    forms = mf.eigenforms(k, 64)
    assert ow.probe_set == tuple(range(1, d + 1)) and len(ow.omega) == d
    assert np.all(ow.omega > 0)
    for (m, n) in ((2, 3), (3, 5), (4, 9), (2, 8)):
        lhs = sum(w * f.c(m) * f.c(n) for w, f in zip(ow.omega, forms))
        rhs = petersson_rhs_q(m, n, k, tol=1e-11)
        assert abs(lhs - rhs.value) <= (1e-8 * max(1.0, abs(rhs.value))
                                        + ow.certificate + rhs.certificate)


def test_omega_sum_is_diagonal():
    for k in (16, 24, 36):
        ow = mo.omega_weights(k)
        assert abs(float(np.sum(ow.omega)) - ow.rhs_diag) < 1e-10


def test_omega_empty_space():
    with pytest.raises(ValueError, match="empty space"):
        mo.omega_weights(14)


def test_weight_constraint_errors(delta_record):
    with pytest.raises(ValueError, match="weight constraint k_j > l_j violated"):
        mo.e_term(delta_record, 1, 12)
    with pytest.raises(ValueError, match="weight constraint"):
        mo.m_term_direct(delta_record, 1, 12)


def test_m_residue_closed_form_matches_laurent_data(delta_record):
    # p = 1, level 1, l = 12: residue = 2[gamma + (psi((k-11)/2)+psi((k+11)/2)
    #                                   - log 4pi^2)/2]
    for k in (16, 20, 40):
        expect = 2.0 * (EULER_GAMMA + 0.5 * (digamma((k - 11) / 2.0)
                                             + digamma((k + 11) / 2.0)
                                             - math.log(4 * math.pi ** 2)))
        assert abs(mo.m_term_residue(delta_record, 1, k) - expect) < 1e-12


def test_m_direct_vs_residue_rate(delta_record):
    for k in (16, 24, 40, 60):
        md = mo.m_term_direct(delta_record, 1, k)
        mr = mo.m_term_residue(delta_record, 1, k)
        assert k * abs(md.value - mr) <= 50.0


def test_m_direct_sign_tracks_cg(delta_record):
    for p in (2, 3, 5):
        for k in (20, 30):
            md = mo.m_term_direct(delta_record, p, k)
            assert math.copysign(1.0, md.value) == math.copysign(1.0, delta_record.c(p))


def test_m_direct_tolerance_stability(delta_record):
    a = mo.m_term_direct(delta_record, 2, 16, tol=1e-8)
    b = mo.m_term_direct(delta_record, 2, 16, tol=1e-12)
    assert abs(a.value - b.value) <= a.certificate + b.certificate


@pytest.mark.parametrize("k", [14, 24, 40])
@pytest.mark.parametrize("level,l", [(1, 12), (3, 6)])
def test_w_sum_matches_pointwise_sum(k, level, l):
    # the one d-sum behind M, E and recovery, against scalar V summed over
    # four times its d range; M's and E's default stop tolerances
    vp = mo.VParams((k,), (l,), conductor=float(level))
    vq = mo._vq(vp)
    M = mo._e_nu_range(vp, E_TOL)
    cases = [(np.array([float(p)]), 1e-9 / 16) for p in (1, 2, 5)]
    cases.append((np.arange(1.0, M + 1), E_TOL * 1e-4))
    for nus, tol in cases:
        W, cert, d_end = mo._w_sum(vp, level, nus, tol)
        # the stop rule one d at a time: the first coprime d >= 4 below tol
        d_ref = next(d for d in range(4, 10 ** 6) if math.gcd(d, level) == 1
                     and float(vq.envelope(vp.afe_argument(nus[0] * d * d))[0]) / d < tol)
        assert d_end == d_ref
        # the quadrature tail counts once per summed term; the d-tail is taken
        # out first, because it is far larger and would hide a missing part:
        # the envelope over d_end <= d < D = 8 d_end, then its line past D
        used = [d for d in range(1, d_end) if math.gcd(d, level) == 1]
        D = 8 * d_end
        env = [float(vq.envelope(vp.afe_argument(nus[0] * d * d))[0])
               for d in range(d_end, D + 1)]
        sigma = vq.envelope_slope(vp.afe_argument(nus[0] * D * D))
        d_tail = sum(e / d for d, e in zip(range(d_end, D), env) if math.gcd(d, level) == 1)
        d_tail += env[-1] * (1.0 / D + 1.0 / (2.0 * sigma))
        assert cert - d_tail >= vq.quad_tail * sum(1.0 / d for d in used)
        # scalar V over every nu is slow; check W at about 40 nus from 1 to M
        for i in np.unique(np.geomspace(1, len(nus), 40).astype(int)) - 1:
            plain = sum(vq.value(vp.afe_argument(nus[i] * d * d)) / d
                        for d in range(1, 4 * d_end) if math.gcd(d, level) == 1)
            assert abs(W[i] - plain) <= cert, (nus[i], W[i] - plain, cert)


@pytest.mark.parametrize("k", [14, 30, 48, 60, 96, 120])
def test_w_sum_stop_rule_against_8x_d_range(k):
    # falsifies the stop rule's d-tail: W over d < 8 d_end moves by at most
    # the certificate
    vp = mo.VParams((k,), (12,))
    vq = mo._vq(vp)
    for tol in (1e-10 / 16, 1e-10):
        for nu in (1.0, 2.0, 3.0, 5.0):
            W, cert, d_end = mo._w_sum(vp, 1, np.array([nu]), tol)
            ds = np.arange(1.0, 8 * d_end)
            vals, interp_err = vq.values(vp.afe_argument(nu * ds * ds))
            assert interp_err == 0.0
            gap = abs(float(np.sum(vals / ds)) - float(W[0]))
            assert gap <= cert, (k, tol, nu, gap / cert)


def test_moment_reports_build_no_float_form(delta_record, monkeypatch):
    # the scan's tolerances at every pure Delta^d weight up to k = 60
    calls = []
    build = mf._float_eigen
    monkeypatch.setattr(mf, "_float_eigen", lambda k, n: calls.append((k, n)) or build(k, n))
    series.clear_store()
    for k in (24, 36, 48, 60):
        for p in (1, 2):
            rep = mo.moment_report(delta_record, p, k, afe_tol=1e-7, e_tol=1e-5)
            assert abs(rep.identity_residual) <= rep.cert_total
    series.clear_store()
    assert calls == []


@pytest.mark.parametrize("p", [0, -2, 4])
def test_bad_twist_raises(delta_record, p):
    with pytest.raises(ValueError, match="p must be 1 or prime"):
        mo.moment_report(delta_record, p, 16)


def test_e_term_stability_under_doubled_truncations(delta_record):
    base = mo.e_term(delta_record, 1, 20)
    vp_cut = mo._e_nu_range(mo.VParams((20,), (12,)), E_TOL)
    doubled = mo.e_term(delta_record, 1, 20, nu_cutoff=2 * vp_cut)
    assert abs(base.value - doubled.value) <= 1e-6
    # four times the nu range moves E by at most the certificate, plus 1e-14
    # relative for rounding, which the certificate (truncation only) does not cover
    for k in (20, 24, 32):
        short = mo.e_term(delta_record, 1, k)
        M = mo._e_nu_range(mo.VParams((k,), (12,)), E_TOL)
        long = mo.e_term(delta_record, 1, k, nu_cutoff=4 * M)
        gap = abs(long.value - short.value)
        assert gap <= short.certificate + 1e-14 * max(1.0, abs(short.value)), (k, gap)


def test_e_term_certificate_ignores_earlier_spline_calls(delta_record):
    # the shared, stored V quadrature of (24, 12) must not carry the
    # interpolation error of an interpolated central value into e_term; the
    # store is cleared before each e_term, so the second builds its own W row
    series.clear_store()
    before = mo.e_term(delta_record, 1, 24)
    series.clear_store()
    n = 250_001  # past the interpolation threshold of VQuadrature.values
    g = mf.newform_from_eigenform(mf.eigenforms(12, n)[0])
    central_value(mf.eigenforms(24, n)[0], g, cutoff=n, rigorous_tail=False)
    after = mo.e_term(delta_record, 1, 24)
    assert after.certificate == before.certificate
    assert after.value == before.value
    vp = mo.VParams((24,), (12,))
    _, interp_err = mo._vq(vp).values(vp.afe_argument(np.arange(1.0, n + 1)))
    assert interp_err > 0.0  # the central value above was interpolated


def test_moment_report_ignores_earlier_twists(delta_record, monkeypatch):
    # the twist-independent half of a report is stored once per weight: a
    # report after three other twists equals one from a cleared store
    rows = []
    w_sum = mo._w_sum

    def counting(vp, level, nus, tol):
        if len(nus) > 1:  # the E-term's row; M and the recovery ask one nu
            rows.append(len(nus))
        return w_sum(vp, level, nus, tol)
    monkeypatch.setattr(mo, "_w_sum", counting)
    series.clear_store()
    for p in (1, 2, 3):
        mo.moment_report(delta_record, p, 24)
    after = mo.moment_report(delta_record, 5, 24)
    assert len(rows) == 1
    series.clear_store()
    fresh = mo.moment_report(delta_record, 5, 24)
    assert vars(after) == vars(fresh)


def test_moment_report_evaluates_w_at_p_once(delta_record, monkeypatch):
    # M and the recovery denominator share one W(p), at the recovery's stop rule
    single = []
    w_sum = mo._w_sum

    def counting(vp, level, nus, tol):
        if len(nus) == 1:
            single.append(tol)
        return w_sum(vp, level, nus, tol)
    monkeypatch.setattr(mo, "_w_sum", counting)
    for p, k in ((1, 16), (2, 24), (5, 30)):
        single.clear()
        rep = mo.moment_report(delta_record, p, k)
        assert single == [1e-10 / 16]
        md = mo.m_term_direct(delta_record, p, k)
        tight = mo.m_term_direct(delta_record, p, k, tol=1e-10)
        assert rep.m_direct == tight.value
        assert abs(rep.m_direct - md.value) <= md.certificate
        assert tight.certificate <= md.certificate
        assert rep.recovered_c == mo.recover_coefficient(delta_record, p, k)


def _e_unskipped(g, p, k):
    """E over every (nu, c) point of its grid, the certificate before skipping,
    and the number of grid points (all of which the loop used to evaluate)."""
    tol = E_TOL
    vp = mo.VParams((k,), (g.weight,))
    M = mo._e_nu_range(vp, tol)
    nus = np.arange(1.0, M + 1)
    W, w_cert, _ = mo._w_sum(vp, g.level, nus, tol * 1e-4)
    cg = np.asarray(g.cn[: M + 1])
    wt = cg[1:] * W / np.sqrt(nus)
    x = 4.0 * math.pi * np.sqrt(nus * p)
    cmax = mo._e_cmax(k, float(x[-1]), np.abs(wt), tol / 4.0)
    cert = (float(np.sum(np.abs(wt) * bessel_j_c_tail_bound(k - 1, x, cmax)))
            + mo._e_nu_tail(vp, p, k, M) + float(np.sum(np.abs(cg[1:]) / np.sqrt(nus))) * w_cert)
    acc = 0.0
    for c in range(1, cmax + 1):
        row = mo.kloosterman_row(p, c)
        s_of_nu = row[np.arange(1, M + 1) % c]
        acc += float(np.dot(wt * s_of_nu, bessel_j_array(k - 1, x / c))) / c
    sign = -1.0 if (k // 2) % 2 else 1.0
    return 4.0 * math.pi * sign * acc, 4.0 * math.pi * cert, M * cmax


@pytest.mark.parametrize("p,k", [(1, 16), (2, 24), (3, 32), (5, 40)])
def test_e_term_skipping_within_its_added_mass(delta_record, p, k):
    # every skipped point's bound joins the certificate, and all of them
    # together add at most 1e-4 of the certificate before skipping
    e = mo.e_term(delta_record, p, k)
    e_full, cert_full, _ = _e_unskipped(delta_record, p, k)
    added = e.certificate - cert_full
    assert added <= 1e-4 * cert_full, (added, cert_full)
    assert abs(e.value - e_full) <= added, (e.value - e_full, added)


def test_e_term_evaluates_at_most_half_its_grid(delta_record, monkeypatch):
    # (2, 24) keeps 34% of its grid; over the 56 flagship reports the share
    # runs from 28% to 61% (40% of all points)
    points = []

    def counting(order, xs):
        points.append(np.size(xs))
        return bessel_j_array(order, xs)
    monkeypatch.setattr(mo, "bessel_j_array", counting)
    rep = mo.moment_report(delta_record, 2, 24)
    monkeypatch.undo()
    _, _, grid = _e_unskipped(delta_record, 2, 24)
    assert abs(rep.identity_residual) <= rep.cert_total
    assert sum(points) <= grid / 2, (sum(points), grid)


def test_flagship_identity_small_grid(delta_record):
    for (k, p) in ((14, 1), (16, 2), (18, 1), (20, 5)):
        rep = mo.moment_report(delta_record, p, k)
        assert abs(rep.identity_residual) <= rep.cert_total, (k, p)
        assert rep.cert_total < 1e-5


def test_empty_space_moment_is_pure_cancellation(delta_record):
    # dim S_14 = 0: the eigenform side is an empty sum, so E = -M exactly
    rep = mo.moment_report(delta_record, 1, 14)
    assert rep.lhs == 0.0
    assert abs(rep.m_direct + rep.e_value) <= rep.cert_total


def test_recover_coefficient_examples(delta_record):
    rec = mo.recover_coefficient(delta_record, 2, 20)
    assert abs(rec - (-24 / 2 ** 5.5)) < 1e-6
    rec1 = mo.recover_coefficient(delta_record, 1, 18)
    assert abs(rec1 - 1.0) < 1e-8


def test_recovery_determines_form(delta_record):
    # the determination experiment: recovered C at p=2 separates Delta from
    # the weight-16 eigenform
    g16 = mf.newform_from_eigenform(mf.eigenforms(16, 50000)[0])
    r_delta = mo.recover_coefficient(delta_record, 2, 22)
    r_16 = mo.recover_coefficient(g16, 2, 22)
    assert abs(r_delta - r_16) > 0.1


def test_recovery_k_independence(delta_record):
    vals = [mo.recover_coefficient(delta_record, 3, k) for k in (18, 24, 30)]
    assert max(vals) - min(vals) < 1e-6


def test_scan_csv_schema(delta_record):
    res = mo.asymptotic_scan(delta_record, 2, [16, 18, 20])
    csv = mo.scan_to_csv(res)
    lines = csv.strip().split("\n")
    assert lines[0] == mo.CSV_HEADER
    assert len(lines) == 4
    assert [r.weight for r in res.reports] == [16, 18, 20]  # computed from 20 down
    first = lines[1].split(",")
    assert first[0] == "16" and first[1] == "2"
    assert len(first) == 9
    # slope of the p=2 scan carries the sign of C_Delta(2) < 0
    assert res.slope_theoretical < 0


def test_moment_report_finite_guard():
    with pytest.raises(ValueError):
        mo.MomentReport(weight=16, p=1, m_direct=float("nan"), m_residue=0.0,
                        e_value=0.0, lhs=0.0, identity_residual=0.0,
                        recovered_c=0.0, cert_total=0.0)
