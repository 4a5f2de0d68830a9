import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from rsmoment import series


def schoolbook(a, b, n_out):
    out = [0] * n_out
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j < n_out:
                out[i + j] += ai * bj
    return out


@given(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1, max_size=40),
       st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1, max_size=40),
       st.integers(1, 90))
@settings(max_examples=120, deadline=None)
def test_mul_exact_matches_schoolbook(a, b, n_out):
    assert series.mul_exact(a, b, n_out) == schoolbook(a, b, n_out)


def test_mul_exact_huge_coefficients():
    a = [10 ** 40, -(10 ** 38), 3]
    b = [7, 10 ** 41]
    assert series.mul_exact(a, b, 5) == schoolbook(a, b, 5)


def _big_series(min_size, max_size):
    # a last term near 2^600 fixes the slot width and the packed length, so
    # 150+ terms pack past the FFT threshold whatever the other terms are
    return st.builds(
        lambda top, sign, rest: rest + [sign * top],
        st.integers(2 ** 599, 2 ** 600), st.sampled_from((1, -1)),
        st.lists(st.integers(-2 ** 600, 2 ** 600), min_size=min_size - 1,
                 max_size=max_size - 1))


def _counting_fft_mul(monkeypatch):
    """Record what every ``_fft_mul`` call returns (None: a guard failed)."""
    real, results = series._fft_mul, []

    def counted(A, B):
        results.append(real(A, B))
        return results[-1]
    monkeypatch.setattr(series, "_fft_mul", counted)
    return results


@given(_big_series(150, 400), _big_series(150, 400), st.integers(1, 900))
@settings(max_examples=25, deadline=None)
def test_mul_exact_fft_branch_matches_schoolbook(a, b, n_out):
    with pytest.MonkeyPatch.context() as patch:
        results = _counting_fft_mul(patch)
        got = series.mul_exact(a, b, n_out)
    assert got == schoolbook(a, b, n_out)
    assert len(results) == 1 and results[0] is not None  # FFT ran, no fallback


@given(_big_series(150, 400), st.integers(1, 900))
@settings(max_examples=10, deadline=None)
def test_mul_exact_square_fft_branch_packs_once(a, n_out):
    real, packed = series._pack_signed, []

    def counted(v, slot):
        packed.append(len(v))
        return real(v, slot)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_pack_signed", counted)
        results = _counting_fft_mul(patch)
        same = series.mul_exact(a, a, n_out)
        equal = series.mul_exact(a, list(a), n_out)  # equal, not one object
        patch.setattr(series, "_FFT_MIN_BYTES", 10 ** 12)  # CPython's A * A
        cpython = series.mul_exact(a, a, n_out)
    assert same == equal == cpython == schoolbook(a, a, n_out)
    assert packed == [len(a)] * 3  # each square packs its operand once
    assert len(results) == 2 and None not in results  # FFT ran, no fallback


def _all_ones(nbytes):
    return (1 << (8 * nbytes)) - 1  # every 12-bit digit at 4095


@pytest.mark.parametrize("la, lb", [
    (3000, 3000), (3001, 3001), (3002, 3002),  # byte lengths 0, 1, 2 mod 3
    (3001, 3002), (12_000, 40), (40, 12_001)])  # unequal, and far apart
def test_fft_mul_equals_product_at_worst_case(la, lb):
    A, B = _all_ones(la), _all_ones(lb)
    assert series._fft_mul(A, B) == A * B
    assert series._fft_mul(A, A) == A * A  # a square: one forward transform


@pytest.mark.parametrize("la, lb", [(800_000, 800_000), (800_000, 266_667)])
def test_fft_mul_rounding_margin_near_the_size_limit(la, lb):
    A, B = _all_ones(la), _all_ones(lb)
    assert series._fft_worst_error(8 * la, 8 * lb) < 0.25  # _big_mul takes the FFT
    x = series._digits(A)
    conv = series._fft_conv(x, x if la == lb else series._digits(B))
    assert np.max(np.abs(conv - np.rint(conv))) < 1 / 16  # well inside the 1/4 guard
    n, m = 8 * la, 8 * lb  # (2^n - 1)(2^m - 1), without CPython's product
    want = (1 << (n + m)) - (1 << n) - (1 << m) + 1
    assert series._fft_mul(A, A if la == lb else B) == want


@pytest.mark.parametrize("la, lb", [(5000, 5000), (5000, 5001), (5002, 4000), (20_000, 7)])
@pytest.mark.parametrize("sa, sb", [(1, -1), (-1, 1), (-1, -1)])
def test_fft_mul_equals_product_with_signs(la, lb, sa, sb):
    rng = np.random.default_rng(la + 7 * lb)
    A = sa * int.from_bytes(rng.bytes(la - 1) + b"\x80", "little")
    B = sb * int.from_bytes(rng.bytes(lb - 1) + b"\xff", "little")
    assert series._fft_mul(A, B) == A * B
    assert series._fft_mul(A, A) == A * A == series._fft_mul(A, -A) * -1


@pytest.mark.parametrize("dtype", ["<i8", ">i8"])  # either byte order in
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1001, 1002])
def test_carry_sums_the_digits(dtype, n):
    c = np.random.default_rng(n).integers(0, 2 ** 50, n, dtype=np.int64)
    c[-1] = 2 ** 50 - 1  # a top field near 2^62: its eighth byte is read
    want = sum(int(x) << (12 * j) for j, x in enumerate(c))
    assert series._carry(c.astype(dtype)) == want


def _percival_mp(norms, size):
    """Percival's bound evaluated as written, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        e = mpmath.mpf(2) ** -53
        k = 3 * mpmath.log(size, 2)
        return float(norms * ((1 + e) ** k * (1 + e * mpmath.sqrt(5)) ** (k + 1)
                              * (1 + e / mpmath.sqrt(2)) ** k - 1))


def test_fft_error_bound_is_percivals():
    size = series._fast_len(2 * 2_000_000 - 1)
    norms = 255.0 ** 2 * 2_000_000  # two 2 MB operands, every byte 255
    bound = series._fft_error_bound(norms, size)
    assert bound == pytest.approx(3.8e-3, rel=0.01)
    assert bound == pytest.approx(_percival_mp(norms, size), rel=1e-12)
    e = 2.0 ** -53  # as written in float64, 1 + e rounds to 1: about half
    k = 3 * np.log2(size)
    naive = norms * ((1 + e) ** k * (1 + e * 5 ** 0.5) ** (k + 1) * (1 + e / 2 ** 0.5) ** k - 1)
    assert naive < 0.6 * bound


def test_big_mul_takes_the_fft_exactly_while_its_bound_is_below_a_quarter(monkeypatch):
    def worst_12bit(la, lb):
        na, nb = 2 * -(-la // 3), 2 * -(-lb // 3)
        return _percival_mp(4095.0 ** 2 * (na * nb) ** 0.5, series._fast_len(na + nb - 1))

    lo, hi = 100_000, 2_000_000  # the last equal byte length whose bound is below 1/4
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if worst_12bit(mid, mid) < 0.25 else (lo, mid)
    assert 800_000 < lo < 880_000
    pairs = [(lo, lo), (hi, hi), (lo - 3, lo + 3), (lo, 2 * lo), (6000, 4 * lo),
             (6000, 40 * lo), (6000, 6000), (93_555, 93_555), (3 * lo, 3 * lo)]
    for la, lb in pairs:
        below = worst_12bit(la, lb) < 0.25
        for a, b in [(la, lb), (lb, la)]:
            assert (series._fft_worst_error(8 * a, 8 * b) < 0.25) == below
    # _big_mul routes on the same bound; stand-in operands record the route
    taken = []

    class Operand:
        def __init__(self, nbytes):
            self.nbits = 8 * nbytes

        def bit_length(self):
            return self.nbits

        def __mul__(self, other):
            taken.append("cpython")

    monkeypatch.setattr(series, "_fft_mul", lambda A, B: taken.append("fft") or 0)
    for la, lb in pairs:
        taken.clear()
        series._big_mul(Operand(la), Operand(lb))
        assert taken == (["fft"] if worst_12bit(la, lb) < 0.25 else ["cpython"])


@pytest.mark.parametrize("shift", [0.4, 1.0])  # fails the 1/4 guard; the mod-p check
def test_mul_exact_falls_back_when_a_guard_fails(monkeypatch, shift):
    a = [(-1) ** i * (3 ** 700 + i) for i in range(200)]
    b = [(i * 7919) ** 80 - 5 for i in range(180)]
    real = series._fft_conv

    def perturbed(x, y):
        out = real(x, y)
        out[len(out) // 3] += shift
        return out
    monkeypatch.setattr(series, "_fft_conv", perturbed)
    results = _counting_fft_mul(monkeypatch)
    assert series.mul_exact(a, b, 400) == schoolbook(a, b, 400)
    assert series.mul_exact(a, a, 400) == schoolbook(a, a, 400)  # a square
    assert results == [None, None]


def naive_delta(n):
    """q * prod_{m<n} (1-q^m)^24 by direct exact polynomial multiplication."""
    poly = [1]
    for m in range(1, n):
        factor = [0] * (m + 1)
        factor[0], factor[m] = 1, -1
        for _ in range(24):
            poly = schoolbook(poly, factor, n)
    return [0] + poly[: n - 1]


def test_delta_exact_against_naive_product_oracle():
    n = 40
    assert series.delta_exact(n) == naive_delta(n)


def test_delta_known_values():
    tau = series.delta_exact(12)
    assert tau[1] == 1 and tau[2] == -24 and tau[3] == 252
    assert tau[4] == -1472 and tau[5] == 4830 and tau[10] == -115920
    assert tau[11] == 534612


def test_eisenstein_exact():
    e4 = series.eisenstein_exact(4, 5)
    assert e4 == [1, 240, 2160, 6720, 17520]
    e6 = series.eisenstein_exact(6, 4)
    assert e6 == [1, -504, -16632, -122976]
    e12 = series.eisenstein_exact(12, 3)  # 691 E12 = 691 + 65520 q + ...
    assert e12 == [691, 65520, 65520 * 2049]
    for w in (7, 2, 0, -4):
        with pytest.raises(ValueError):
            series.eisenstein_exact(w, 4)
    # E8 = E4^2, E10 = E4 E6 and 691 E12 = 441 E4^3 + 250 E6^2 (dim M_w <= 2)
    n = 60
    e4, e6 = series.eisenstein_exact(4, n), series.eisenstein_exact(6, n)
    e4e4 = series.mul_exact(e4, e4, n)
    assert series.eisenstein_exact(8, n) == e4e4
    assert series.eisenstein_exact(10, n) == series.mul_exact(e4, e6, n)
    assert series.eisenstein_exact(12, n) == [
        441 * a + 250 * b for a, b in zip(series.mul_exact(e4e4, e4, n), series.mul_exact(e6, e6, n))]


def test_mul_float_accuracy_on_modform_shapes():
    n = 30000
    tau = np.array([float(x) for x in series.delta_exact(n)])
    # cusp x cusp: cancellation-benign, near machine precision throughout
    got2 = series.mul_float(tau, tau, n)
    ref2 = series.mul_exact(series.delta_exact(n), series.delta_exact(n), n)
    for idx in (17, 999, 29998):
        assert abs(got2[idx] - ref2[idx]) / abs(ref2[idx]) < 2e-12, idx
    # cusp x Eisenstein: the scale-collapse cancellation grows ~ n; still
    # comfortably inside the tolerance the callers budget for
    e4 = np.array([float(x) for x in series.eisenstein_exact(4, n)])
    got = series.mul_float(tau, e4, n)
    ref = series.mul_exact(series.delta_exact(n), series.eisenstein_exact(4, n), n)
    for idx, tol in ((17, 1e-12), (999, 1e-10), (29998, 1e-7)):
        rel = abs(got[idx] - ref[idx]) / abs(ref[idx])
        assert rel < tol, (idx, rel)


def test_sieves():
    s3 = series.sigma_sieve(3, 10)
    assert s3[6] == 1 + 8 + 27 + 216
    d = series.divisor_count_sieve(13)
    assert d[12] == 6 and d[7] == 2 and d[1] == 1


@st.composite
def small_int_series(draw):
    """Up to 300 small integers (10 dyadic blocks), some whole blocks zeroed."""
    n = draw(st.integers(1, 300))
    xs = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    for s in draw(st.sets(st.integers(0, 9), max_size=3)):
        lo, hi = (1 << s) >> 1, min(n, 1 << s)
        xs[lo:hi] = [0] * max(0, hi - lo)
    return xs


@given(small_int_series(), small_int_series(), st.integers(1, 700))
@example(a=[7], b=[-3], n_out=4)
@example(a=[5], b=list(range(-150, 150)), n_out=600)
@example(a=series.eta3_sparse(300), b=list(range(300, 0, -1)), n_out=300)
@example(a=series.eta3_sparse(300), b=series.eta3_sparse(260), n_out=700)
@settings(max_examples=150, deadline=None)
def test_mul_float_matches_schoolbook(a, b, n_out):
    ref = np.array(schoolbook(a, b, n_out), dtype=float)
    got = series.mul_float(np.array(a, dtype=float), np.array(b, dtype=float), n_out)
    assert got.shape == (n_out,)
    # every block pair counted once: rounding recovers the integers exactly
    assert np.array_equal(np.rint(got), ref)
    assert np.max(np.abs(got - ref)) < 1e-6


@given(small_int_series(), st.integers(1, 700))
@example(a=[7], n_out=4)
@example(a=series.eta3_sparse(300), n_out=700)
@example(a=list(range(-150, 150)), n_out=300)
@settings(max_examples=150, deadline=None)
def test_mul_float_square_matches_schoolbook(a, n_out):
    x = np.array(a, dtype=float)
    got = series.mul_float(x, x.copy(), n_out)  # equal operands, not one object
    ref = np.array(schoolbook(a, a, n_out), dtype=float)
    assert got.shape == (n_out,)
    assert np.array_equal(np.rint(got), ref)
    assert np.max(np.abs(got - ref)) < 1e-6


def test_mul_float_square_takes_about_half_the_ffts(monkeypatch):
    n = 2 ** 14
    d = series.delta_exact(n)
    fd = np.array([float(x) for x in d])
    fd2 = np.array([float(x) for x in series.mul_exact(d, d, n)])
    real, calls = series._fft_conv, []

    def counted(x, y):
        calls.append(y is x)
        return real(x, y)
    monkeypatch.setattr(series, "_fft_conv", counted)
    series.mul_float(fd, fd.copy(), n)
    square = list(calls)
    calls.clear()
    series.mul_float(fd2, fd, n)
    assert len(square) <= 0.6 * len(calls), (len(square), len(calls))
    assert any(square) and not any(calls)  # diagonal pairs take one transform


def _rel_errors(got, exact):
    ref = np.array([float(x) for x in exact])
    nz = ref != 0
    return np.abs(got[nz] - ref[nz]) / np.abs(ref[nz])


def test_mul_float_accuracy_against_exact_at_2_14():
    n = 2 ** 14
    d = series.delta_exact(n)
    d2 = series.mul_exact(d, d, n)
    fd, fd2 = (np.array([float(x) for x in v]) for v in (d, d2))
    rel = _rel_errors(series.mul_float(fd, fd, n), d2)
    assert rel.max() <= 1.2e-10 and np.median(rel) <= 1.5e-14
    rel = _rel_errors(series.mul_float(fd2, fd, n), series.mul_exact(d2, d, n))
    assert rel.max() <= 3.2e-8 and np.median(rel) <= 3.2e-13


def test_fast_len_is_the_least_5_smooth_length():
    # brute force: every 2^a 3^b 5^c up to 2^17, the least one >= n
    smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(18) for b in range(11)
                    for c in range(8) if 2 ** a * 3 ** b * 5 ** c <= 2 ** 17)
    want = np.array(smooth)[np.searchsorted(smooth, np.arange(1, 100_001))]
    got = np.array([series._fast_len(n) for n in range(1, 100_001)])
    assert np.array_equal(got, want)
    # scipy.fft.next_fast_len(n, True) at lengths the FFT paths reach
    for n, size in ((2 ** 20 + 1, 1_049_760), (786_435, 787_320), (1_572_869, 1_574_640)):
        assert series._fast_len(n) == size


def test_eta6_float_is_exact():
    for n in (1, 2, 4, 1000, 40000):
        e3 = series.eta3_sparse(n)
        assert np.array_equal(series.eta6_float(n),
                              np.array(series.mul_exact(e3, e3, n), dtype=float)), n


def _sieve_loop(power, n):
    s = [0] * n
    for d in range(1, n):
        for m in range(d, n, d):
            s[m] += d ** power
    return np.array(s, dtype=float)


@pytest.mark.parametrize("power, sieve", [
    (0, series.divisor_count_sieve),
    (1, lambda n: series.sigma_sieve(1, n)),
    (5, lambda n: series.sigma_sieve(5, n)),  # sums past 2^53: rounding order shows
])
def test_divisor_sums_bit_identical_in_any_request_order(power, sieve):
    series.clear_store()
    short, long, again = sieve(300), sieve(20000), sieve(300)
    series.clear_store()
    fresh = sieve(20000)
    assert len(short) == len(again) == 300 and len(long) == 20000
    assert short.tobytes() == again.tobytes() == long[:300].tobytes()
    assert long.tobytes() == fresh.tobytes()
    exact = _sieve_loop(power, 20000)
    if power < 5:
        assert np.array_equal(long, exact)
    else:
        assert np.allclose(long, exact, rtol=1e-14, atol=0)
    for arr in (short, long):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1] = 0.0


def test_deligne_bound_sieve():
    # B(m) = sum_{d^2|m} d(m/d^2)^2 against trial division, below d(m)^3
    series.clear_store()
    long = series.deligne_bound_sieve(5001)
    sliced = series.deligne_bound_sieve(300)
    series.clear_store()
    fresh = series.deligne_bound_sieve(300)
    assert sliced.tobytes() == fresh.tobytes() == long[:300].tobytes()
    assert long[0] == 0.0
    assert long[1:].tolist() == [oracles.deligne_bound(m) for m in range(1, 5001)]
    cube = series.divisor_count_sieve(5001) ** 3
    assert np.all(long <= cube)
    assert long[6] == 16.0 and cube[6] == 64.0  # d(6) = 4 and no square divisor
    assert not long.flags.writeable


def test_clear_store_resets_every_memo():
    from rsmoment import modforms, moments, rankin, tracefmla
    from rsmoment.numfield import Q_SQRT5

    box = tracefmla._residue_box(Q_SQRT5, (2, 1))
    getters = {
        "V quadrature": lambda: rankin._vq(rankin.VParams((24,), (12,))),
        "omega": lambda: moments.omega_weights(16),
        "W row": lambda: moments._w_row(rankin.VParams((24,), (12,)), 1, 50, 1e-6),
        "nu-tail row": lambda: moments._nu_tail_row(rankin.VParams((24,), (12,)), 50),
        "eigenforms": lambda: modforms.eigenforms(16, 50)[0],
        "Hecke data": lambda: modforms._eigen_data(16),
        "kloosterman row": lambda: tracefmla.kloosterman_row(3, 35),
        "inverse table": lambda: tracefmla._inverse_table(35),
        "residues": lambda: tracefmla._residue_data(Q_SQRT5, (2, 1), box),
    }
    before = {name: get() for name, get in getters.items()}
    for name, get in getters.items():
        assert get() is before[name], name
    series.clear_store()
    for name, get in getters.items():
        assert get() is not before[name], name
    row = tracefmla.kloosterman_row(3, 35)
    assert not row.flags.writeable
    assert not any(a.flags.writeable for a in tracefmla._residue_data(Q_SQRT5, (2, 1), box))
