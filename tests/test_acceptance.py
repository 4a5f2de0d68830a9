"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest -s to see them inline;
they also land in the captured output of failing tests).  The asymptotic
scan (criteria 3-5) is computed once and shared.
"""

import cmath
import math
import time

import numpy as np
import pytest

import oracles
from rsmoment import modforms as mf
from rsmoment import moments as mo
from rsmoment import rankin as rk
from rsmoment import series
from rsmoment import tracefmla as tf
from rsmoment.numfield import Q_SQRT2, Q_SQRT5, embed_float, is_totally_positive, norm, trace
from rsmoment.tracefmla import petersson_rhs_q


def report(num, name, ok, details=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {details}")
    return ok


@pytest.fixture(scope="module")
def delta_record():
    return mf.newform_from_eigenform(mf.eigenforms(12, 80000)[0])


@pytest.fixture(scope="module")
def scan_p1(delta_record):
    return mo.asymptotic_scan(delta_record, 1, range(14, 61, 2))


def test_criterion_1_trace_formula_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (12, 16, 18, 20, 22, 26, 24, 28, 32, 36):
        ow = mo.omega_weights(k)
        forms = mf.eigenforms(k, 64)
        for (m, n) in ((2, 3), (3, 5), (4, 9), (2, 8)):
            lhs = float(sum(w * f.c(m) * f.c(n) for w, f in zip(ow.omega, forms)))
            rhs = petersson_rhs_q(m, n, k)
            worst = max(worst, abs(lhs - rhs.value) / max(1.0, abs(rhs.value)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    assert report(1, "trace-formula cross-validation", ok,
                  f"(worst rel {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_2_flagship_identity(delta_record):
    t0 = time.perf_counter()
    worst_resid, worst_cert = 0.0, 0.0
    for p in (1, 2, 3, 5):
        for k in range(14, 41, 2):
            rep = mo.moment_report(delta_record, p, k)
            worst_resid = max(worst_resid, abs(rep.identity_residual) /
                              max(rep.cert_total, 1e-300))
            worst_cert = max(worst_cert, rep.cert_total)
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1.0 and worst_cert <= 1e-5 and elapsed < 600.0
    assert report(2, "flagship identity LHS = M + E", ok,
                  f"(max |resid|/cert {worst_resid:.3f}, max cert {worst_cert:.2e}, "
                  f"{elapsed:.0f}s)")


def test_criterion_3_asymptotic_slope(scan_p1):
    res = scan_p1
    slope_err = abs(res.slope - 2.0)
    # diagnostic: the asymptotic window where the digamma curvature has
    # died down (the full-range fit carries the k=14 empty space and the
    # psi((k-11)/2) curvature; see the decisions ledger)
    tail = [r for r in res.reports if r.weight >= 40]
    lk = np.log([r.weight for r in tail])
    lh = [r.lhs for r in tail]
    tail_slope = float(np.polyfit(lk, lh, 1)[0])
    ok = slope_err <= 0.3 and res.max_abs_residual_from_fit <= 1.0
    assert report(3, "asymptotic slope 2*gamma_-1*log k", ok,
                  f"(full-range slope {res.slope:.4f} vs 2.0 +- 0.3; "
                  f"k>=40 window slope {tail_slope:.4f}; "
                  f"max fit residual {res.max_abs_residual_from_fit:.3f})")


def test_criterion_4_e_term_boundedness(scan_p1):
    evals = [abs(r.e_value) for r in scan_p1.reports]
    q = len(evals) // 4
    first_q = float(np.mean(evals[:q]))
    last_q = float(np.mean(evals[-q:]))
    ok = max(evals) < 0.5 and last_q <= first_q + 0.1
    assert report(4, "off-diagonal boundedness", ok,
                  f"(max |E| {max(evals):.4f}, first-quartile mean {first_q:.4f}, "
                  f"last {last_q:.6f})")


def test_criterion_5_residue_vs_direct(scan_p1):
    prods = [(r.weight, r.weight * abs(r.m_direct - r.m_residue))
             for r in scan_p1.reports]
    worst = max(v for _, v in prods)
    late = [v for k, v in prods if k >= 20]
    q = len(late) // 4
    trend_ok = float(np.mean(late[-q:])) <= float(np.mean(late[:q])) + 1e-9
    ok = worst <= 50.0 and trend_ok
    assert report(5, "residue form of M at O(1/k)", ok,
                  f"(max k|diff| {worst:.3f}, trend first {np.mean(late[:q]):.3f} "
                  f"-> last {np.mean(late[-q:]):.3f})")


def _afe_cutoff_model(k, l, cg, target=1e-9):
    vp = rk.VParams(k, l, g_scale=cg)
    vq = rk._vq(vp)
    m = 1024
    while True:
        env = float(vq.envelope(vp.afe_argument(float(m)))[0])
        s = vq.envelope_slope(vp.afe_argument(float(m)))
        if 25.0 * env * math.sqrt(m) / max(s - 0.5, 0.5) < target:
            return m
        m = int(m * 1.25)
        if m > 3 * 10 ** 7:
            raise RuntimeError("cutoff model diverged")


def test_criterion_6_afe_robustness(delta_record):
    """G-scale and contour invariance of central values.

    Equal-weight distinct-eigenform pairs support the literal g_scale set
    {1/2, 1, 2}; the mixed-weight pairs' conductors push the c_G = 2 AFE
    length beyond any feasible coefficient supply (see the decisions
    ledger), so those run the contour triple plus {1/4, 1/2}.
    """
    t0 = time.perf_counter()
    f24 = mf.eigenforms(24, _afe_cutoff_model(24, 24, 2.0))
    f36 = mf.eigenforms(36, _afe_cutoff_model(36, 36, 2.0))
    rec24 = [mf.newform_from_eigenform(f) for f in f24]
    rec36 = [mf.newform_from_eigenform(f) for f in f36]
    strict_pairs = [
        ("24a x 24b", f24[0], rec24[1], (0.5, 1.0, 2.0)),
        ("36a x 36b", f36[0], rec36[1], (0.5, 1.0, 2.0)),
        ("36a x 36c", f36[0], rec36[2], (0.5, 1.0, 2.0)),
        ("36b x 36c", f36[1], rec36[2], (0.5, 1.0, 2.0)),
    ]
    mixed_pairs = []
    for k in (16, 18, 20, 22):
        f = mf.eigenforms(k, _afe_cutoff_model(k, 12, 0.5))[0]
        mixed_pairs.append((f"{k} x delta", f, delta_record, (0.25, 0.5)))
    for idx, name in ((0, "24a x delta"), (1, "24b x delta")):
        mixed_pairs.append((name, f24[idx], delta_record, (0.25, 0.5)))

    ok_all = True
    lines = []
    for name, f, g, cgs in strict_pairs + mixed_pairs:
        vals = []
        for cg in cgs:
            cut = min(_afe_cutoff_model(f.weight, g.weight, cg),
                      f.length, g.length)
            cv = rk.central_value(f, g, g_scale=cg, cutoff=cut, rigorous_tail=False)
            vals.append(cv.value)
        for contour in (1.0, 2.0):
            cv = rk.central_value(f, g, g_scale=0.25, contour=contour,
                                  cutoff=min(_afe_cutoff_model(f.weight, g.weight, 0.25),
                                             f.length, g.length),
                                  rigorous_tail=False)
            vals.append(cv.value)
        spread = max(vals) - min(vals)
        rel = spread / max(1.0, abs(vals[0]))
        pair_ok = rel <= 1e-8
        ok_all &= pair_ok
        lines.append(f"{name}: rel spread {rel:.2e} over cg {cgs} + contours")
    elapsed = time.perf_counter() - t0
    assert report(6, "AFE robustness (10 pairs)", ok_all,
                  f"({'; '.join(lines)}; {elapsed:.0f}s)")
    series.clear_store()


def test_criterion_7_kloosterman_correctness():
    t0 = time.perf_counter()
    # (a) exact match to brute force over Q for all c <= 200
    for c in range(1, 201):
        for (m, n) in ((1, 1), (2, 3)):
            v = tf.kloosterman_q(m, n, c)
            o = _kq_complex_oracle(m, n, c)
            assert abs(v - o.real) < 1e-7 and abs(o.imag) < 1e-7, (m, n, c)
    # (b) number fields: all ideals of norm <= 200
    for field in (Q_SQRT5, Q_SQRT2):
        alpha = field.element(1, 1)
        if not is_totally_positive(alpha):
            alpha = field.element(3, 1)
        for c, nc in tf._ideal_generators_canonical(field, 200):
            v = tf.kloosterman_nf(tf.KloostermanQuery(alpha=alpha, beta=field.one, c=c))
            o = _kl_nf_oracle(field, alpha, field.one, c)
            assert abs(v - o.real) < 1e-6 and abs(o.imag) < 1e-6, (field.key, c)
    # (c) Weil bound envelope for c <= 500, m, n <= 10
    for c in range(1, 501):
        row_cache = {}
        dc = sum(1 for d in range(1, c + 1) if c % d == 0)
        rc = math.sqrt(c)
        for n in range(1, 11):
            row = tf.kloosterman_row(n, c)
            for m in range(1, 11):
                bound = dc * math.sqrt(math.gcd(m, math.gcd(n, c))) * rc
                assert abs(row[m % c]) <= bound + 1e-6, (m, n, c)
    # (d) CRT multiplicativity for 50 coprime pairs
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        c1 = int(rng.integers(2, 60))
        c2 = int(rng.integers(2, 60))
        if math.gcd(c1, c2) != 1:
            continue
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        g2 = pow(c2, -1, c1)
        g1 = pow(c1, -1, c2)
        lhs = tf.kloosterman_q(m, n, c1 * c2)
        rhs = tf.kloosterman_q(m * g2 % c1, n * g2 % c1, c1) * \
            tf.kloosterman_q(m * g1 % c2, n * g1 % c2, c2)
        assert abs(lhs - rhs) < 1e-6, (m, n, c1, c2)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert report(7, "Kloosterman correctness",
                  True, f"(Q c<=200, N(c)<=200 both fields, Weil c<=500, "
                        f"50 CRT pairs; {elapsed:.0f}s)")


def _kq_complex_oracle(m, n, c):
    if c == 1:
        return 1.0 + 0.0j
    tot = 0.0 + 0.0j
    for x in range(1, c):
        if math.gcd(x, c) == 1:
            tot += cmath.exp(2j * math.pi * (m * x + n * pow(x, -1, c)) / c)
    return tot


def _kl_nf_oracle(field, alpha, beta, c):
    """Independent enumeration: rectangle residue system, inverses by a
    product scan (no Euclid) in plain integer coordinates, one vectorized
    row of candidates y per residue x, and exact rational phases."""
    t, n = field.omega_trace, field.omega_norm
    h11, h12, h22 = tf._residue_box(field, tf._coords(c))
    y2, y1 = np.divmod(np.arange(h11 * h22), h11)
    delta = field.different_gen
    a, b = alpha / (delta * c), beta * delta / c
    tot = 0.0 + 0.0j
    for x1, x2 in zip(y1.tolist(), y2.tolist()):
        # x*y - 1 = p1 + p2*omega reduced into the HNF box must be 0
        p1 = x1 * y1 - n * x2 * y2 - 1
        p2 = x1 * y2 + x2 * y1 + t * x2 * y2
        hit = np.flatnonzero((p2 % h22 == 0) & ((p1 - p2 // h22 * h12) % h11 == 0))
        if len(hit) == 0:
            continue
        x = field.element(x1, x2)
        y = field.element(int(y1[hit[0]]), int(y2[hit[0]]))
        ph = (trace(a * x) + trace(b * y)) % 1
        tot += cmath.exp(2j * math.pi * float(ph))
    return tot


def test_criterion_8_unit_sum_convergence():
    for field in (Q_SQRT5, Q_SQRT2):
        eps1 = float(embed_float(field.eps0)[0])
        out = tf.unit_sum_tail(field, 1.0, eps1 ** 32)  # units eps0^{2t}, t <= 16
        assert out.certificate < 1e-6, field.key
    one5 = Q_SQRT5.one
    deltas = []
    for kvec in ((20, 20), (30, 30)):
        a = tf.petersson_rhs_nf(one5, one5, tf.TraceRHSParams(
            weight_vec=kvec, c_norm_bound=150, unit_height_bound=50.0, tol=1e-5))
        b = tf.petersson_rhs_nf(one5, one5, tf.TraceRHSParams(
            weight_vec=kvec, c_norm_bound=300, unit_height_bound=2500.0, tol=1e-5))
        deltas.append(abs(a.value - b.value))
    ok = all(d < 1e-6 for d in deltas)
    assert report(8, "unit-sum convergence + degree-2 RHS stability", ok,
                  f"(tail certs < 1e-6 at t<=16; doubling deltas {deltas})")


def test_criterion_9_coefficient_recovery(delta_record):
    tau = {2: -24, 3: 252, 5: 4830, 7: -16744}
    worst = 0.0
    for p, tp in tau.items():
        ref = tp / p ** 5.5
        for k in (20, 30):
            rec = mo.recover_coefficient(delta_record, p, k)
            worst = max(worst, abs(rec - ref))
    g16 = mf.newform_from_eigenform(mf.eigenforms(16, 50000)[0])
    margin = abs(mo.recover_coefficient(delta_record, 2, 20)
                 - mo.recover_coefficient(g16, 2, 20))
    ok = worst <= 1e-6 and margin > 0.1
    assert report(9, "coefficient recovery / determination", ok,
                  f"(max |rec - tau(p)/p^5.5| {worst:.2e}; "
                  f"determination margin {margin:.3f})")


def test_criterion_10_transformation_law():
    d = series.delta_exact(601)
    rng = np.random.default_rng(3)
    worst_margin = -1.0
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.4))
        v1, c1 = oracles.evaluate(d, 12, -1 / z)
        v2, c2 = oracles.evaluate(d, 12, z)
        bound = c1 + abs(z) ** 12 * c2 + 1e-13
        resid = abs(v1 - z ** 12 * v2)
        worst_margin = max(worst_margin, resid - bound)
        assert resid <= bound, (z, resid, bound)
    assert report(10, "transformation law at level 1", True,
                  f"(20 points, worst resid-bound margin {worst_margin:.2e})")


def test_criterion_11_gamma_quotient_envelope():
    """Literal grid A in [5,200], |c| <= A/2 - 1, |t| <= 50, threshold 10.

    The stated envelope is false at the grid corners: the gamma ratio
    carries a factor ~ exp(c^2 / 2A) (4e10 at A=200, c=-99), so no absolute
    constant works for |c| up to A/2.  The contour-shift argument only uses
    |c| <= ~7, where the bound does hold; both facts are printed.
    """
    worst, worst_at = 0.0, None
    a_grid = [5.0, 8.0, 12.0, 20.0, 35.0, 60.0, 100.0, 150.0, 200.0]
    small_worst = 0.0
    for A in a_grid:
        cmax = A / 2 - 1
        for frac in np.linspace(-1.0, 1.0, 9):
            c = frac * cmax
            for t in np.linspace(-50.0, 50.0, 11):
                v = oracles.gamma_quotient_check(A, c, t)
                if v > worst:
                    worst, worst_at = v, (A, c, t)
                if abs(c) <= min(cmax, 7.0):
                    small_worst = max(small_worst, v)
    ok = worst <= 10.0
    assert report(11, "gamma-quotient envelope", ok,
                  f"(max ratio {worst:.3e} at {worst_at}; exp(c^2/2A) there "
                  f"{math.exp(worst_at[1] ** 2 / (2 * worst_at[0])):.3e}; "
                  f"|c| <= 7 subgrid max {small_worst:.3f} <= 10)")
