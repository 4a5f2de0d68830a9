import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import oracles
from rsmoment.numfield import Q, Q_SQRT2, Q_SQRT5
from rsmoment import specialfn as sf


# -- log gamma ----------------------------------------------------------------

def test_log_gamma_trivial_values():
    assert abs(sf.log_gamma(1.0)) < 1e-13
    assert abs(sf.log_gamma(5.0) - math.log(24)) < 1e-13


def test_log_gamma_half_via_duplication_oracle():
    # duplication at z = 1/2: lgGamma(1) = 0 forces lg(1/2) = (1/2) log pi
    lg_half = sf.log_gamma(0.5)
    assert abs(math.exp(lg_half.real) - math.sqrt(math.pi)) < 1e-13


def test_log_gamma_recurrence_1000_random_right_half_plane():
    rng = random.Random(20240808)
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(0.05, 60.0), rng.uniform(-40.0, 40.0))
        lhs = sf.log_gamma(z + 1)
        rhs = sf.log_gamma(z) + complex(math.log(abs(z)), math.atan2(z.imag, z.real))
        worst = max(worst, abs(math.exp((lhs - rhs).real) - 1.0))
    assert worst < 1e-12


def test_log_gamma_matches_mpmath():
    rng = random.Random(7)
    for _ in range(60):
        z = complex(rng.uniform(0.1, 90), rng.uniform(-60, 60))
        assert abs(sf.log_gamma(z) - complex(mp.loggamma(z))) < 1e-11


def test_log_gamma_pole():
    with pytest.raises(ValueError, match="gamma pole"):
        sf.log_gamma(-3.0)


# -- digamma ------------------------------------------------------------------

def euler_gamma_series_oracle():
    # gamma = lim (H_n - log n); Euler-Maclaurin corrected partial sum
    n = 10 ** 5
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n * n)


def test_digamma_at_one_is_minus_euler_gamma():
    gamma_oracle = euler_gamma_series_oracle()
    assert abs(sf.digamma(1.0) + gamma_oracle) < 1e-12


def test_digamma_recurrence():
    assert abs(sf.digamma(2.0) - (sf.digamma(1.0) + 1.0)) < 1e-14
    for a in (0.3, 1.7, 9.2):
        assert abs(sf.digamma(a + 1) - sf.digamma(a) - 1.0 / a) < 1e-13


def test_digamma_stirling_form_at_100():
    # psi(100) = log 100 - 1/200 - eps with |eps| < 1e-4
    eps = math.log(100.0) - 1.0 / 200.0 - sf.digamma(100.0)
    assert abs(eps) < 1e-4


def test_digamma_stirling_remainder_bound():
    for a in (10.0, 25.0, 80.0, 300.0):
        rem = sf.digamma(a) - math.log(a) + 1.0 / (2 * a)
        assert abs(rem) < 2.0 / (a * a)


def test_digamma_domain():
    with pytest.raises(ValueError):
        sf.digamma(0.0)


# -- J-Bessel ------------------------------------------------------------------

def test_bessel_zero_argument():
    for nu in (1, 5, 19, 39):
        assert sf.bessel_j(nu, 0.0) == 0.0


def test_bessel_leading_term():
    v = sf.bessel_j(1, 1e-6)
    assert abs(v - 0.5e-6) < 1e-12 * 0.5e-6


def test_bessel_three_term_recurrence_grid():
    worst = 0.0
    for nu in range(2, 60, 7):
        for x in (0.5, 3.0, 11.0, 27.0, 50.0):
            lhs = sf.bessel_j(nu - 1, x) + sf.bessel_j(nu + 1, x)
            rhs = 2.0 * nu / x * sf.bessel_j(nu, x)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / max(scale, 1e-10))
    assert worst < 1e-10


def test_bessel_series_domination():
    for nu in (3, 11, 25):
        for frac in (0.2, 0.6, 1.0):
            x = frac * math.sqrt(nu + 1.0)
            v = sf.bessel_j(nu, x)
            assert 0.0 <= v <= sf.bessel_j_series_bound(nu, x) * (1 + 1e-12)


def test_bessel_j_series_bound_array_matches_scalar_calls():
    xs = np.array([0.0, 1e-300, 0.3, 2.0, 17.5, 120.0, 5e3, 1e300])
    for order in (1, 3, 19, 39):
        got = sf.bessel_j_series_bound(order, xs)
        assert got.shape == xs.shape
        one = [float(sf.bessel_j_series_bound(order, x)) for x in xs]
        assert got.tolist() == one
        assert got[0] == 0.0 and math.isinf(got[-1]) == (order > 1)  # past exp(700)
        mid = got[2:6]
        want = [math.exp(order * math.log(x / 2.0) - math.lgamma(order + 1)) for x in xs[2:6]]
        assert np.allclose(mid, want, rtol=1e-13, atol=0.0)


def test_bessel_j_c_tail_bound_dominates_direct_sum():
    for order, C in ((13, 8), (39, 40), (59, 200)):
        xs = np.array([1.0, 50.0, 4.0 * math.pi * math.sqrt(3000.0)])
        got = sf.bessel_j_c_tail_bound(order, xs, C)
        assert got.shape == xs.shape
        cs = np.arange(C + 1, 200001, dtype=float)
        for x, b in zip(xs, got):
            direct = float(np.sum((x / (2.0 * cs)) ** order)) / math.factorial(order)
            assert direct <= b * (1 + 1e-12), (order, x, C)


def test_bessel_against_highprec_series():
    for (nu, x) in [(11, 4 * math.pi), (15, 2 * math.pi), (19, 30.0), (39, 5.0),
                    (29, 77.0), (11, 300.0)]:
        ref = float(oracles.bessel_j_highprec(nu, x))
        got = sf.bessel_j(nu, x)
        assert abs(got - ref) < 1e-11 * max(abs(ref), 1e-8), (nu, x)


def _bessel_array_grid(order):
    """x = 0 and x from 1e-3 to 1000, dense around x = order and x = 2 sqrt(order + 1)."""
    turn = 2.0 * math.sqrt(order + 1.0)
    xs = np.unique(np.concatenate([
        [0.0],
        np.geomspace(1e-3, 1000.0, 40),
        order + np.linspace(-2.0, 2.0, 17),
        turn + np.linspace(-1.0, 1.0, 9),
    ]))
    return xs[xs >= 0.0]


@pytest.mark.parametrize("order", [0, 1, 13, 39, 59])
def test_bessel_j_array_against_highprec(order):
    xs = _bessel_array_grid(order)
    got = sf.bessel_j_array(order, xs)
    for x, v in zip(xs, got):
        ref = float(oracles.bessel_j_highprec(order, float(x)))
        scale = max(math.sqrt(2.0 / (math.pi * x)) if x else 0.0, abs(ref))
        assert abs(v - ref) <= 1e-13 * scale, (order, x, v, ref)


def test_bessel_j_array_branch_edges_and_bessel_zeros():
    # the two branch boundaries (x = order and x = 2 sqrt(order + 1), each
    # from both sides), tiny x, and the first zeros of J_0 and J_1, where the
    # backward recurrence's fit to (J_0, J_1) leans on one of the two
    zeros = [float(mp.besseljzero(nu, s)) for nu in (0, 1) for s in (1, 2, 3, 4)]
    for order in range(1, 61):
        turn = 2.0 * math.sqrt(order + 1.0)
        edges = [float(order), turn]
        xs = np.array(sorted({1e-300, 1e-8, *zeros, *edges,
                              *(np.nextafter(e, 0.0) for e in edges),
                              *(np.nextafter(e, np.inf) for e in edges)}))
        got = sf.bessel_j_array(order, xs)
        for x, v in zip(xs, got):
            ref = float(oracles.bessel_j_highprec(order, float(x)))
            scale = max(math.sqrt(2.0 / (math.pi * x)), abs(ref))
            assert abs(v - ref) <= 1e-13 * scale, (order, x, v, ref)


def _assert_j_close(order, xs, oracle):
    got = sf.bessel_j_array(order, np.asarray(xs, dtype=float))
    for x, v in zip(xs, got):
        ref = float(oracle(order, float(x)))
        scale = max(math.sqrt(2.0 / (math.pi * x)), abs(ref))
        assert abs(v - ref) <= 1e-13 * scale, (order, x, v, ref)


def test_bessel_j_array_at_the_hankel_seam_and_zeros():
    # x = X0, where the forward path from Hankel's J0, J1 takes over from
    # Miller's recurrence, from both sides; x = max(order, X0), where it
    # starts for each order; and the first four zeros of J0 and J1, where
    # Miller's Neumann normalization meets a vanishing J0 or J1
    x0 = sf._HANKEL_X0
    zeros = [float(mp.besseljzero(nu, s)) for nu in (0, 1) for s in (1, 2, 3, 4)]
    seam = [x0, np.nextafter(x0, 0.0), np.nextafter(x0, np.inf)]
    for order in range(0, 61):
        edge = max(float(order), x0)
        xs = sorted({*seam, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), *zeros})
        _assert_j_close(order, xs, oracles.bessel_j_highprec)


def test_bessel_j_array_phase_at_large_x():
    # the phase x - pi/4 is never rounded, so J keeps its 1e-13 scale bound
    # far out; the ascending series would need 5e5 digits at x = 1e6, so the
    # oracle here is mpmath's own J
    def oracle(order, x):
        with mp.workdps(40):
            return mp.besselj(order, x)

    for order in (0, 1, 13, 59):
        _assert_j_close(order, [1e4, 1e5, 1e6], oracle)


def test_hankel_first_neglected_term_at_x0():
    # DLMF 10.17(iii): each truncated Hankel sum is off by at most its first
    # neglected term, so |J_nu - computed| / sqrt(2/(pi x)) is at most
    # |a_2L(nu)| x^-2L + |a_2L+1(nu)| x^-2L-1, which falls with x
    def a(k, nu):
        out = Fraction(1)
        for j in range(1, k + 1):
            out *= Fraction(4 * nu * nu - (2 * j - 1) ** 2, 8 * j)
        return abs(out)

    terms, x0 = sf._HANKEL_TERMS, Fraction(sf._HANKEL_X0)
    for nu in (0, 1):
        first = a(2 * terms, nu) / x0 ** (2 * terms) + a(2 * terms + 1, nu) / x0 ** (2 * terms + 1)
        assert first < Fraction(1, 2 ** 60), (nu, float(first))


def test_bessel_mellin_barnes_cross_check():
    # contour form at sigma = nu/2 against the primary path
    for (nu, x) in [(11, 2.0), (11, 4 * math.pi), (15, 6.0)]:
        mb = oracles.bessel_j_mellin_barnes(nu, x, sigma=nu / 2.0)
        assert abs(mb - sf.bessel_j(nu, x)) < 1e-9


# -- zeta ---------------------------------------------------------------------

def zeta2_direct_oracle():
    n = 200000
    s = sum(1.0 / (k * k) for k in range(1, n + 1))
    return s + 1.0 / n - 1.0 / (2.0 * n * n)  # integral tail correction


def test_zeta_basel():
    oracle = zeta2_direct_oracle()
    v = oracles.zeta_partial(Q, 2.0)
    assert abs(v.real - math.pi ** 2 / 6) < 1e-13
    assert abs(v.real - oracle) < 1e-10


def test_zeta_euler_factor_removed():
    v = oracles.zeta_partial(Q, 2.0, (2,))
    assert abs(v.real - (math.pi ** 2 / 6) * (1 - 0.25)) < 1e-13


def test_zeta_convergence_region():
    with pytest.raises(ValueError, match="outside convergence region"):
        oracles.zeta_partial(Q, 1.0)


def test_dedekind_zeta_sqrt5_against_norm_counting_oracle():
    v = oracles.zeta_partial(Q_SQRT5, 2.0)
    oracle = oracles.zeta_norm_sum_oracle(Q_SQRT5, 2.0, length=400000)
    assert abs(v - oracle) < 1e-9
    v8 = oracles.zeta_partial(Q_SQRT2, 2.0)
    oracle8 = oracles.zeta_norm_sum_oracle(Q_SQRT2, 2.0, length=400000)
    assert abs(v8 - oracle8) < 1e-9


def test_zeta_laurent_q():
    gm1, g0 = sf.zeta_laurent_at_center(Q)
    assert abs(gm1 - 1.0) < 1e-13
    assert abs(g0 - euler_gamma_series_oracle()) < 1e-10
    # numerical-limit oracle: zeta(1+2u) - 1/(2u) -> gamma
    u = 1e-5
    lim = (oracles.zeta_partial(Q, 1.0 + 2 * u).real - 1.0 / (2 * u))
    assert abs(lim - g0) < 1e-4


def test_zeta_laurent_q_removed_two():
    gm1, _ = sf.zeta_laurent_at_center(Q, (2,))
    assert abs(gm1 - 0.5) < 1e-13


def test_zeta_laurent_quadratic_class_number_oracle():
    for field in (Q_SQRT5, Q_SQRT2):
        gm1, g0 = sf.zeta_laurent_at_center(field)
        assert abs(gm1 - field.zeta_residue) < 1e-10
        # numerical limit of 2u * zeta_F(1+2u)
        u = 5e-4
        approx = 2 * u * oracles.zeta_partial(field, 1 + 2 * u).real
        assert abs(approx - gm1) < 5e-3
        # and the constant term via the limit, Richardson-extrapolated
        def const(uu):
            return oracles.zeta_partial(field, 1 + 2 * uu).real - gm1 / (2 * uu)
        c1, c2 = const(1e-3), const(5e-4)
        richardson = 2 * c2 - c1
        assert abs(richardson - g0) < 1e-4


# -- gamma quotient ------------------------------------------------------------

def test_gamma_quotient_trivial():
    assert abs(oracles.gamma_quotient_check(10.0, 0.0, 0.0) - 1.0) < 1e-13
    assert abs(oracles.gamma_quotient_check(10.0, 1.0, 0.0) - 1.0) < 1e-12


def test_gamma_quotient_sample_bounded():
    v = oracles.gamma_quotient_check(50.0, 3.0, 20.0)
    assert 0.0 < v < 10.0


def test_gamma_quotient_precondition():
    with pytest.raises(ValueError):
        oracles.gamma_quotient_check(10.0, 6.0, 0.0)


def test_gamma_quotient_envelope_where_the_shift_lemma_lives():
    # the ratio carries a factor ~ e^{c^2/2A}; the contour-shift argument
    # only ever uses |c| <= ~7, where the envelope is genuinely O(1)
    worst = 0.0
    for A in (5.0, 20.0, 80.0, 200.0):
        cmax = min(A / 2 - 1, 7.0)
        for frac in (-1.0, -0.4, 0.0, 0.4, 1.0):
            c = frac * cmax
            for t in (0.0, 5.0, 50.0):
                worst = max(worst, oracles.gamma_quotient_check(A, c, t))
    assert worst <= 10.0


def test_gamma_quotient_grows_at_extreme_shifts():
    # |c| ~ A/2 breaks any absolute constant: the e^{c^2/2A} factor is real
    assert oracles.gamma_quotient_check(200.0, -99.0, 0.0) > 1e10
