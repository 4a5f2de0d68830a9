import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from rsmoment import modforms as mf
from rsmoment import rankin as rk
from rsmoment import series
from rsmoment.specialfn import log_gamma


@pytest.fixture(scope="module")
def delta_record():
    return mf.newform_from_eigenform(mf.eigenforms(12, 60000)[0])


@pytest.fixture(scope="module")
def f16():
    return mf.eigenforms(16, 50000)[0]


@pytest.fixture(autouse=True)
def deligne_bounds_every_rankin_series(monkeypatch):
    # B(m) >= |b_m| on every Rankin series a test in this file builds
    build = rk.b_coefficients

    def checked(f, g, M):
        rs = build(f, g, M)
        over = np.abs(rs.b) - series.deligne_bound_sieve(M + 1)
        assert np.all(over <= 0.0), (M, int(np.argmax(over)), float(np.max(over)))
        return rs
    monkeypatch.setattr(rk, "b_coefficients", checked)


def test_vparams_validation():
    with pytest.raises(ValueError, match="k_j >= l_j"):
        rk.VParams((12,), (16,))
    with pytest.raises(ValueError, match="even"):
        rk.VParams((13,), (11,))
    with pytest.raises(ValueError):
        rk.VParams((16,), (12,), conductor=0.5)
    with pytest.raises(ValueError):
        rk.VParams((16,), (12,), g_scale=0.0)
    # equal weights allowed (distinct forms have entire Rankin-Selberg L)
    rk.VParams((24,), (24,))


def test_v_at_tiny_y_is_one():
    p = rk.VParams((14,), (12,))
    assert abs(oracles.v_function(1e-8, p) - 1.0) < 1e-4


def test_v_decay_at_ten_k_squared():
    p = rk.VParams((14,), (12,))
    assert abs(oracles.v_function(10 * 14 ** 2, p)) <= 0.05


def test_v_contour_invariance():
    p = rk.VParams((16,), (12,), g_scale=1.0)
    vals = [oracles.v_function(3.7, p, contour=c) for c in (1.0, 1.5, 2.0)]
    assert max(vals) - min(vals) < 1e-9


def test_v_matches_independent_quadrature_oracle():
    import mpmath as mp
    p = rk.VParams((16,), (12,), g_scale=0.5)

    def oracle(y):
        a1, a2 = p.gamma_shifts()[0]
        def f(t):
            u = mp.mpf(1.5) + 1j * t
            return (mp.e ** (-u * mp.log(y)) * mp.gamma(a1 + u) / mp.gamma(a1)
                    * mp.gamma(a2 + u) / mp.gamma(a2) * mp.e ** (0.5 * u * u) / u)
        with mp.workdps(30):
            return float(mp.quad(f, [-30, 0, 30]).real / (2 * mp.pi))

    for y in (0.5, 3.7, 40.0, 500.0):
        assert abs(oracles.v_function(y, p) - oracle(y)) < 1e-11


def test_v_envelope_is_actually_an_envelope():
    p = rk.VParams((20,), (12,), g_scale=0.5)
    vq = rk._vq(p)
    ys = np.array([1.0, 10.0, 100.0, 1000.0, 12345.0])
    vals, interp_err = vq.values(ys)
    assert interp_err == 0.0  # direct path
    env = vq.envelope(ys)
    assert np.all(np.abs(vals) <= env * (1 + 1e-9))


def _line_sum_mp(vq, y):
    """The quadrature sum of V(y) over vq's own nodes and weights, in mpmath at
    40 digits; also the sum of the terms' moduli (how many digits any float
    summation order can lose)."""
    (w, sigma, h), base = (vq.neg_line, 1) if y < 0.1 else (vq.line, 0)
    ts = np.arange(len(w)) * h
    with mp.workdps(40):
        ly = mp.log(mp.mpf(float(y)))
        total, mass = mp.mpf(0), mp.mpf(0)
        for wj, tj in zip(w, ts):
            term = mp.mpc(wj.real, wj.imag) * mp.exp(-(mp.mpf(sigma) + 1j * mp.mpf(float(tj))) * ly)
            total += term.real
            mass += abs(term)
        return float(base + total), float(mass)


# y on both sides of the residue split at 0.1: the small-y branch, the band
# just above it, and the AFE arguments 4 pi^2 m of level 1
_V_YS = (1e-9, 1e-6, 1e-3, 0.02, 0.0999, 0.1, 0.3, 1.0, 4.0, 15.0) \
    + tuple(4 * math.pi ** 2 * m for m in (1, 2, 3, 7, 30, 250, 4000, 10 ** 5))


@pytest.mark.parametrize("k", [14, 40, 60])
def test_v_horner_matches_mpmath_line_sum(k):
    vq = rk._vq(rk.VParams((k,), (12,)))
    got, _ = vq.values(np.array(_V_YS))
    for y, v in zip(_V_YS, got):
        ref, mass = _line_sum_mp(vq, y)
        # absolute where the terms are O(1); where they reach 1e5 (k = 60,
        # y = 0.1) no float summation order keeps more than eps * mass
        assert abs(v - ref) <= 2e-15 * max(1.0, mass), (k, y, v - ref, mass)


@pytest.mark.parametrize("k, l, g_scale", [(24, 24, 0.25), (24, 24, 0.5), (24, 24, 1.0),
                                            (24, 12, 0.5)])
def test_v_interpolant_within_its_bound(k, l, g_scale):
    # 2^18 points take the interpolant; about 200 of them, with every panel
    # edge among them and y = 0.1 from both sides, and 50 AFE arguments,
    # against the exact quadrature sum.  Past the proved bound only rounding
    # is allowed: the sum's own, eps times the moduli of its terms (the
    # residue 1 among them below 0.1), spread by the Lebesgue constant.
    vq = rk._vq(rk.VParams((k,), (l,), g_scale=g_scale))
    lo, hi = 1e-3, 4 * math.pi ** 2 * 2 ** 18
    edges = np.exp(rk._LOG_SPLIT + rk._CHEB_WIDTH * np.arange(
        math.floor((math.log(lo) - rk._LOG_SPLIT) / rk._CHEB_WIDTH) + 1,
        math.ceil((math.log(hi) - rk._LOG_SPLIT) / rk._CHEB_WIDTH)))
    special = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                              [0.1, np.nextafter(0.1, 0.0)]])
    ys = np.sort(np.concatenate([np.geomspace(lo, hi, 2 ** 18 - len(special)), special]))
    vals, bound = vq.values(ys)
    assert 0.0 < bound < 1e-30
    back, back_bound = vq.values(ys[::-1])  # unsorted points are sorted first
    assert np.array_equal(back[::-1], vals) and back_bound == bound
    rng = np.random.default_rng(11)
    picks = np.concatenate([np.searchsorted(ys, special),
                            rng.choice(len(ys), 200 - len(special), replace=False)])
    # and the AFE arguments 4 pi^2 m of a central value, all above the split
    afe = vq.p.afe_argument(np.arange(1.0, 2 ** 18 + 1))
    afe_vals, afe_bound = vq.values(afe)
    assert 0.0 < afe_bound < 1e-30
    eps = np.finfo(float).eps
    checks = [(ys[i], vals[i], bound) for i in picks]
    checks += [(afe[i], afe_vals[i], afe_bound)
               for i in [0, len(afe) - 1, *rng.choice(len(afe), 48, replace=False)]]
    for y, v, b in checks:
        ref, mass = _line_sum_mp(vq, y)
        base = 1.0 if y < 0.1 else 0.0
        assert abs(v - ref) <= b + 64 * eps * (mass + base), (y, v - ref)


@pytest.mark.parametrize("k", [14, 40, 60])
def test_log_gamma_array_on_v_lines_matches_mpmath(k):
    p = rk.VParams((k,), (12,))
    vq = rk._vq(p)
    for weights, sigma, h in (vq.line, vq.neg_line):
        for a in p.gamma_shifts()[0]:
            z = a + sigma + 1j * h * np.arange(len(weights))
            got = log_gamma(z)
            with mp.workdps(30):
                ref = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z])
            # relative to |log Gamma|, absolute where it is below 1: it
            # vanishes at z = 1, which the k = 14 line passes near
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= 1e-14, (k, sigma, a, err.max())
            assert got[7] == log_gamma(z[7])  # a scalar is a one-point call


def test_effective_cutoff_examples():
    p = rk.VParams((14,), (12,), g_scale=1.0)
    m = rk.effective_cutoff(p, 1e-8)
    # machine check: the certified tail at the returned cutoff is below tol,
    # and the cutoff is minimal for the envelope bound used
    assert rk.afe_tail_bound(p, m) < 1e-8
    assert rk.afe_tail_bound(p, max(1, m - max(2, m // 50))) > 1e-8 * 0.5
    assert rk.effective_cutoff(p, math.inf) == 1


def test_effective_cutoff_weight_scaling():
    ph = rk.VParams((14,), (12,), g_scale=0.5)
    p2 = rk.VParams((28,), (12,), g_scale=0.5)
    m1 = rk.effective_cutoff(ph, 1e-7)
    m2 = rk.effective_cutoff(p2, 1e-7)
    assert 3.0 <= m2 / m1 <= 6.0


@pytest.mark.parametrize("k, tol, cut", [(14, 5e-9, 188), (24, 5e-9, 630), (40, 5e-9, 1690),
                                         (40, 5e-8, 1281), (48, 5e-8, 1848)])
def test_effective_cutoff_under_deligne_bound(k, tol, cut):
    p = rk.VParams((k,), (12,))
    assert rk.effective_cutoff(p, tol) == cut
    assert rk.afe_tail_bound(p, cut) <= tol
    # the d(m)^3 majorant, which E's nu range keeps, needs over 30% more terms
    assert rk._cutoff_search(p, tol, lambda n: series.divisor_count_sieve(n) ** 3) > 1.3 * cut


def test_effective_cutoff_is_the_least_afe_tail_bound_certifies():
    # at (40, 5e-9) the search's envelope sum certifies from 1,680 on and
    # afe_tail_bound from 1,690; a x1.15 step from 1,680 overshot to 1,932
    p = rk.VParams((40,), (12,))
    assert rk.effective_cutoff(p, 5e-9) == 1690
    assert rk.afe_tail_bound(p, 1689) > 5e-9 >= rk.afe_tail_bound(p, 1690)


def test_b_coefficients_level_one(delta_record, f16):
    rs = rk.b_coefficients(f16, delta_record, 200)
    assert abs(rs.b[1] - 1.0) < 1e-12
    # b_4 = C_f(4) C_g(4) + C_f(1) C_g(1): divisors d^2 | 4 are d = 1, 2
    expect4 = f16.c(4) * delta_record.c(4) + 1.0
    assert abs(rs.b[4] - expect4) < 1e-12
    # brute-force double-loop oracle
    for m in (1, 2, 4, 9, 12, 36, 100, 144, 196):
        acc = 0.0
        d = 1
        while d * d <= m:
            if m % (d * d) == 0:
                acc += f16.c(m // (d * d)) * delta_record.c(m // (d * d))
            d += 1
        assert abs(rs.b[m] - acc) < 1e-12


def test_b_coefficients_level_coprimality():
    # synthetic level-6 record: a_d vanishes unless gcd(d, 6) = 1
    k = 16
    f = mf.eigenforms(k, 300)[0]
    cn = np.zeros(301)
    cn[1:] = 0.5
    cn[1] = 1.0
    g = mf.NewformRecord(weight=12, level=6, cn=cn)
    rs = rk.b_coefficients(f, g, 144)
    acc = 0.0
    for d in (1, 5, 7, 11):
        if 144 % (d * d) == 0:
            acc += f.c(144 // (d * d)) * g.c(144 // (d * d))
    assert abs(rs.b[144] - acc) < 1e-12


def test_central_value_g_scale_invariance(f16, delta_record):
    # certified cutoff at the default scale; fixed generous cutoffs for the
    # slow-decay G-scales (their tails are empirically far below 1e-9)
    cut0 = rk.effective_cutoff(rk.VParams((16,), (12,), g_scale=0.5), 1e-10)
    vals = []
    for cg, cutoff, rig in ((0.5, cut0, True), (1.0, 50000, False), (2.0, 50000, False)):
        cv = rk.central_value(f16, delta_record, g_scale=cg, cutoff=cutoff,
                              rigorous_tail=rig)
        vals.append(cv.value)
    assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(vals[0]))


def test_central_value_contour_invariance(f16, delta_record):
    vals = [rk.central_value(f16, delta_record, contour=c, tol=1e-9).value
            for c in (1.0, 1.5, 2.0)]
    assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(vals[0]))


def test_central_value_truncation_stability(f16, delta_record):
    cut = rk.effective_cutoff(rk.VParams((16,), (12,)), 1e-9)
    a = rk.central_value(f16, delta_record, cutoff=cut)
    b = rk.central_value(f16, delta_record, cutoff=2 * cut)
    assert abs(a.value - b.value) <= 1e-8 * max(1.0, abs(a.value))
    assert abs(a.value - b.value) <= a.certificate + b.certificate


@pytest.mark.parametrize("k, tol", [(16, 1e-8), (24, 1e-8), (36, 1e-8), (40, 1e-8),
                                    (44, 1e-7), (48, 1e-7)],
                         ids=["16", "24", "36", "40", "44-scan", "48-scan"])
def test_central_value_certificate_against_4x_cutoff(delta_record, k, tol):
    # every form of S_k against g = Delta: summing to 4M moves L by at most
    # the certificate at M, plus 1e-14 relative for rounding, which the
    # certificate (truncation only) does not cover; at central_value's
    # default tol and, for k = 44 and 48, at the scan's afe_tol 1e-7
    cut = rk.effective_cutoff(rk.VParams((k,), (12,)), tol / 2)
    for f, f_long in zip(mf.eigenforms(k, cut), mf.eigenforms(k, 4 * cut)):
        short = rk.central_value(f, delta_record, tol=tol)
        assert short.cutoff == cut
        long = rk.central_value(f_long, delta_record, cutoff=4 * cut)
        gap = abs(long.value - short.value)
        assert gap <= short.certificate + 1e-14 * max(1.0, abs(short.value)), (k, f.index, gap)


def test_central_value_rejects_polar_pair():
    f = mf.eigenforms(12, 2000)[0]
    g = mf.newform_from_eigenform(f)
    with pytest.raises(ValueError, match="polar"):
        rk.central_value(f, g, cutoff=1000)


def test_central_value_equal_weight_distinct_forms_is_fine():
    forms = mf.eigenforms(24, 3000)
    g = mf.newform_from_eigenform(forms[1])
    cv = rk.central_value(forms[0], g, cutoff=1730, rigorous_tail=False)
    assert math.isfinite(cv.value)


def test_rankin_series_sanity_threshold():
    b = np.zeros(11)
    b[1] = 1.0
    b[10] = 9999.0
    with pytest.raises(ValueError, match="sanity"):
        rk.RankinSeries(b=b, k=16, l=12, level=1)
    # b_6 = 20 lies in (B(6), d(6)^3] = (16, 64]: within the divisor cube,
    # past Deligne's bound
    b[10], b[6] = 0.0, 20.0
    with pytest.raises(ValueError, match="sanity"):
        rk.RankinSeries(b=b, k=16, l=12, level=1)
    b[6] = -16.0
    assert rk.RankinSeries(b=b, k=16, l=12, level=1).length == 10
