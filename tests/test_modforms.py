import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import oracles
from rsmoment import modforms as mf
from rsmoment import series


def _delta(length):
    return series.delta_exact(length + 1)


def test_dims():
    assert [mf.dim_cusp(k) for k in (12, 14, 16, 18, 24, 26, 38, 60)] == \
        [1, 0, 1, 1, 2, 1, 2, 5]


def test_delta_against_naive_eta_product():
    # independent oracle: q prod (1-q^n)^24 by schoolbook multiplication
    n = 30
    poly = [1]
    for m in range(1, n):
        base = [0] * (m + 1)
        base[0], base[m] = 1, -1
        for _ in range(24):
            out = [0] * n
            for i, a in enumerate(poly):
                if a:
                    for j, b in enumerate(base):
                        if i + j < n and b:
                            out[i + j] += a * b
            poly = out
    oracle = [0] + poly[: n - 1]
    assert _delta(n - 1) == oracle


def test_miller_basis_delta():
    basis = mf.miller_basis(12, 10)
    assert len(basis) == 1
    assert basis[0][1:4] == [1, -24, 252]


def test_miller_basis_echelon_block_exact():
    for k in (24, 36, 48):
        d = mf.dim_cusp(k)
        basis = mf.miller_basis(k, d + 4)
        for i in range(d):
            for j in range(d):
                assert basis[i][j + 1] == (1 if i == j else 0)


def test_miller_basis_empty_space():
    with pytest.raises(ValueError, match="empty space"):
        mf.miller_basis(14, 10)
    with pytest.raises(ValueError, match="empty space"):
        mf.miller_basis(13, 10)


def test_miller_basis_matches_e4_e6_chain_oracle():
    # the leading constant D of E_w exceeds 1 at every w >= 12 but 14 (691,
    # 3617, 43867, 174611, 77683 at w = 12..22), so most rows are divided
    weights = [k for k in range(16, 121, 2) if mf.dim_cusp(k)]
    for k, want in oracles.miller_bases_chain(weights, 600).items():
        assert mf.miller_basis(k, 600) == want, k


def test_miller_basis_raises_on_a_non_integral_row(monkeypatch):
    # a monomial that is not D times an integral echelon row must not be rounded
    eis = series.eisenstein_exact
    monkeypatch.setattr(series, "eisenstein_exact",
                        lambda w, n: [7 * eis(w, n)[0]] + eis(w, n)[1:])
    series.clear_store()
    with pytest.raises(ArithmeticError, match="not integral"):
        mf.miller_basis(16, 20)
    series.clear_store()


def _fraction(x: mp.mpf) -> Fraction:
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _separating_dps(A) -> int:
    # the precision _eigen_data solves T_m at
    return 40 + 2 * len(str(max(abs(x) for row in A for x in row)))


def test_eig_values_bracket_roots_of_the_exact_characteristic_polynomial():
    # at the separating precision of _eigen_data, 40 digits plus twice the
    # largest entry's: chi changes sign, exactly, across each returned
    # lambda +- 10^(10 - dps/2) scale, and the d brackets are disjoint, so
    # each holds one root of chi and the order is the true one
    for k in range(16, 121, 2):
        d = mf.dim_cusp(k)
        if not d:
            continue
        for m in (2, 3):
            A = mf.hecke_matrix(k, m)
            dps = _separating_dps(A)
            lams, vecs = mf._eig(A, dps, k)
            assert len(lams) == len(vecs) == d, (k, m)
            chi = oracles.char_poly_exact(A)
            with mp.workdps(dps):
                delta = mp.mpf(10) ** (10 - dps / 2) * (max(abs(lam) for lam in lams) + 1)
                brackets = [(_fraction(lam - delta), _fraction(lam + delta)) for lam in lams]
            assert all(lo > hi for (lo, _), (_, hi) in zip(brackets, brackets[1:])), (k, m)
            for lo, hi in brackets:
                assert oracles.poly_eval(chi, lo) * oracles.poly_eval(chi, hi) < 0, (k, m)


def test_eig_raises_on_complex_or_close_eigenvalues():
    # a rotation has eigenvalues +-i; diag(5400000, 5400001) has a gap of 1,
    # below 1e-6 of the scale
    with pytest.raises(ValueError, match="complex eigenvalue at 60 digits"):
        mf._eig([[0, -1], [1, 0]], 60, 24)
    with pytest.raises(ValueError, match="not separated"):
        mf._eig([[5400000, 0], [0, 5400001]], 60, 24)


def test_short_builds_at_high_weight():
    # a build of a few coefficients has a 0/1 basis, and the Hecke matrix
    # needs 142 digits at k = 120; the forms equal the head of a
    # 512-coefficient build bit for bit
    for k in range(88, 121, 2):
        for f, g in zip(mf.eigenforms(k, 8), mf.eigenforms(k, 512)):
            assert np.array_equal(f.cn, g.cn[:9]), k


def test_one_hecke_solve_per_weight(monkeypatch):
    # every build of S_k, exact or float, of any length, reads one solve
    calls = []
    eig = mf._eig
    monkeypatch.setattr(mf, "_eig", lambda A, dps, k: calls.append(k) or eig(A, dps, k))
    series.clear_store()
    for n in (8, 72, 512, 20000):
        mf.eigenforms(48, n)
    mf.eigenforms(46, 100)
    mf.eigenforms(46, 2322)
    series.clear_store()
    assert calls == [48, 46]


def test_eigen_data_vectors_are_the_solve_exactly():
    # V_i = v_i 2^P with no rounding: P is the finest exponent among the v_i
    series.clear_store()
    m, P, vectors = mf._eigen_data(40)
    A = mf.hecke_matrix(40, m)
    _, vecs = mf._eig(A, _separating_dps(A), 40)
    assert [[_fraction(x) for x in v] for v in vecs] == \
        [[Fraction(V, 2 ** P) for V in v] for v in vectors]
    assert any(V % 2 for v in vectors for V in v)


def test_pure_delta_weights_exact_to_the_bound(monkeypatch):
    # k = 12d is built exactly up to 2^14 coefficients; one more takes the
    # float path, which splices in the exact 1024-coefficient head
    calls = []
    for name in ("_exact_eigen", "_float_eigen"):
        build = getattr(mf, name)
        monkeypatch.setattr(mf, name, lambda k, n, name=name, build=build:
                            calls.append((name, n)) or build(k, n))
    series.clear_store()
    mf.eigenforms(12, 2 ** 14)
    mf.eigenforms(12, 2 ** 14 + 1)
    series.clear_store()
    assert calls == [("_exact_eigen", 2 ** 14), ("_float_eigen", 2 ** 14 + 1),
                     ("_exact_eigen", 1024)]


@pytest.mark.parametrize("k,n", [(60, 2 ** 14 + 1), (72, 2 ** 14 + 1), (96, 20000)])
def test_eigenforms_past_the_hecke_word_table_raise_before_building(k, n):
    # _SPAN_WORDS stops at d = 4: the error names k, d and the 16384 limit,
    # and comes before any series or solve is built
    series.clear_store()
    with pytest.raises(ValueError, match=rf"S_{k} has dimension {k // 12}.*16384 coefficients"):
        mf.eigenforms(k, n)
    assert not series._STORE


def test_exact_products_stay_at_the_requested_length(monkeypatch):
    # (n_out, an operand with a nonzero constant term, i.e. an Eisenstein
    # series or an eta power) for every exact product from an empty store
    calls = []
    mul = series.mul_exact
    monkeypatch.setattr(series, "mul_exact",
                        lambda a, b, n: calls.append((n, bool(a[0] or b[0]))) or mul(a, b, n))
    series.clear_store()
    mf.eigenforms(48, 20000)  # exact forms and Delta^i heads to 1024, floats past them
    assert max(n for n, _ in calls) <= 1025
    calls.clear()
    series.clear_store()
    mf.miller_basis(46, 2322)  # d = 3: Delta E34, Delta^2 E22, Delta^3 E10
    assert sorted(calls) == [(2322, True)] * 3 + [(2323, False)] * 2 + [(2323, True)] * 3


def test_hecke_t1_identity():
    d = _delta(30)
    assert mf.hecke_apply(1, d, 12, 30) == d


def test_hecke_t2_delta_eigen():
    d = _delta(40)
    t2 = mf.hecke_apply(2, d, 12, 20)
    assert t2[1:] == [-24 * a for a in _delta(20)[1:]]


def test_hecke_length_underflow():
    d = _delta(10)
    with pytest.raises(ValueError, match="length underflow"):
        mf.hecke_apply(3, d, 12, 9)


def test_t2_matrix_s24_trace_and_charpoly():
    A = mf.hecke_matrix(24, 2)
    assert A[0][0] + A[1][1] == 1080
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    assert det == 540 ** 2 - 144 * 144169  # roots 540 +- 12 sqrt(144169)


def test_eigenforms_normalized_values():
    f = mf.eigenforms(12, 50)[0]
    assert abs(f.c(1) - 1.0) < 1e-14
    assert abs(f.c(2) - (-24 / 2 ** 5.5)) < 1e-12
    f16 = mf.eigenforms(16, 50)[0]
    assert abs(f16.a(2) - 216) < 1e-8


def test_eigenforms_k24_pair():
    forms = mf.eigenforms(24, 50)
    r = 12 * math.sqrt(144169)
    got = sorted(f.a(2) for f in forms)
    assert abs(got[0] - (540 - r)) < 1e-6
    assert abs(got[1] - (540 + r)) < 1e-6


def test_eigen_sum_matches_trace():
    for k in (24, 36, 48):
        forms = mf.eigenforms(k, 20)
        A = mf.hecke_matrix(k, 2)
        tr = sum(A[i][i] for i in range(len(A)))
        got = sum(f.a(2) for f in forms)
        assert abs(got - tr) <= 1e-8 * abs(tr)


def test_multiplicativity_and_hecke_relation_float_range():
    # a pure-Delta weight extended in float, and an Eisenstein-bearing
    # weight built exactly at the full length
    for k, length in ((24, 40000), (40, 15000)):
        f = mf.eigenforms(k, length)[0]
        for (m, n) in ((2, 3), (3, 8), (25, 49), (121, 169), (37, 41)):
            if m * n > length:
                continue
            lhs = f.c(m * n)
            rhs = f.c(m) * f.c(n)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs) + 1e-9
        for p in (2, 3, 5, 7, 31, 101):
            assert abs(f.c(p * p) - (f.c(p) ** 2 - 1)) < 1e-9


def test_ramanujan_bound_at_primes():
    f = mf.eigenforms(12, 3000)[0]
    primes = [p for p in range(2, 3000) if series.prime_divisors(p) == (p,)]
    assert len(primes) == 430  # pi(3000)
    for p in primes:
        assert abs(f.c(p)) <= 2.0 + 1e-9


def test_float_extension_validated_against_exact_prefix():
    # the overlap on [512, 1024] reads float Delta^3 past index 1024 (the
    # words T_2 and T_3 read it at 2n and 3n), so it sees float error
    forms = mf.eigenforms(36, 20000)
    assert 1e-10 < max(f.float_rel for f in forms) < 1e-8
    assert all(f.float_rel == 0.0 for f in mf.eigenforms(36, 100))  # exact prefix


def test_float_rel_sees_float_product_error(monkeypatch):
    # every float product off by a relative eps past index 1024: float_rel
    # reports it at eps = 1e-9, and the overlap gate refuses the build at 1e-7
    mul = series.mul_float
    eps = 1e-9

    def off(a, b, n):
        out = mul(a, b, n)
        out[1025:] *= 1.0 + eps
        return out
    monkeypatch.setattr(series, "mul_float", off)
    try:
        series.clear_store()
        assert max(f.float_rel for f in mf.eigenforms(24, 20000)) >= 1e-7
        eps = 1e-7
        series.clear_store()
        with pytest.raises(ArithmeticError, match="disagrees with exact prefix"):
            mf.eigenforms(24, 20000)
    finally:
        series.clear_store()


@pytest.mark.parametrize("k", [16, 24, 36, 40, 46, 48])
def test_integer_eigen_evaluation_matches_mpmath(k):
    # every n <= 512, and 200 sampled n past it, held to
    # d 2^-60 n^-(k-1)/2 + 3 ulp against the value at the working
    # precision of the whole basis, v from a solve of T_m at that precision
    length = 3000
    series.clear_store()
    forms = mf.eigenforms(k, length)
    basis = mf.miller_basis(k, length)
    d = len(basis)
    A = mf.hecke_matrix(k, mf._eigen_data(k)[0])
    sep_dps = _separating_dps(A)
    ns = list(range(1, 513)) + [int(n) for n in np.random.default_rng(k).choice(
        np.arange(513, length + 1), 200, replace=False)]
    bits = max(abs(x).bit_length() for b in basis for x in b) + 1
    dps = max(sep_dps, int(bits * 0.302) + 40)
    _, vecs = mf._eig(A, dps, k)
    with mp.workdps(dps):
        half = mp.mpf(k - 1) / 2
        for f, v in zip(forms, vecs):
            for n in ns:
                ref = float(sum(vi * b[n] for vi, b in zip(v, basis)) / mp.mpf(n) ** half)
                bound = d * 2.0 ** -60 * n ** (-(k - 1) / 2) + 3 * np.spacing(abs(ref))
                assert abs(f.cn[n] - ref) <= bound, (k, n)


def test_eigen_head_independent_of_build_length():
    # a long build scales its eigenvectors by a larger 2^P, but rounding them
    # moves these C_f(n) by far less than half an ulp, so a long build first
    # and a short build from an empty store agree exactly
    series.clear_store()
    short = mf.eigenforms(40, 100)
    series.clear_store()
    mf.eigenforms(40, 20000)
    after = mf.eigenforms(40, 100)
    for f, g in zip(short, after):
        assert f.cn.tobytes() == g.cn.tobytes()


_EXACT_STORED = {
    "Delta": series.delta_exact,
    "Delta^3": lambda n: mf._delta_power_exact(3, n),
    "E10": lambda n: series.eisenstein_exact(10, n),
    "Delta^2 E22": lambda n: mf._monomial_exact(2, 22, n - 1),
    "sigma_5": lambda n: series.sigma_sieve_exact(5, n),
}


@pytest.mark.parametrize("name", sorted(_EXACT_STORED))
def test_exact_store_bit_identical_in_any_request_order(name):
    get = _EXACT_STORED[name]
    series.clear_store()
    mf.miller_basis(58, 900)  # longer builds of Delta^1..4, E10, E22 first
    short, long, again = get(40), get(700), get(40)
    series.clear_store()
    fresh = get(700)
    assert len(short) == len(again) == 40 and len(long) == len(fresh) == 700
    assert list(short) == list(again) == list(long[:40]) == list(fresh[:40])
    assert list(long) == list(fresh)


def test_store_holds_no_float_series():
    # a float Delta^d is a local product chain of each float build; the store
    # keeps exact series, the sieves and read-only memo entries only
    series.clear_store()
    forms = mf.eigenforms(36, 20000)
    sieve = series.sigma_sieve(3, 100)
    arrays = [key for key, held in series._STORE.items() if isinstance(held, np.ndarray)]
    assert arrays == [("sigma", 3)]
    for arr in [f.cn for f in forms] + [sieve]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1] = 0.0


@pytest.mark.parametrize("k,n,earlier", [
    (24, 3000, [(24, 9000)]),
    (36, 1860, [(48, 4000)]),
    (36, 2 ** 16, [(36, 2 ** 17)]),
])
def test_eigenforms_independent_of_earlier_requests(k, n, earlier):
    # the same request from an empty store and after longer ones, bit for bit
    series.clear_store()
    fresh = mf.eigenforms(k, n)
    series.clear_store()
    for k0, n0 in earlier:
        mf.eigenforms(k0, n0)
    after = mf.eigenforms(k, n)
    series.clear_store()
    assert len(fresh) == len(after) == mf.dim_cusp(k)
    for f, g in zip(fresh, after):
        assert f.cn.tobytes() == g.cn.tobytes()
        assert f.float_rel == g.float_rel


def test_ascending_requests_build_delta_log_times(monkeypatch):
    # the scan's pattern: every weight asks a few short lengths and a longer one
    builds = []
    eta3 = series.eta3_sparse
    monkeypatch.setattr(series, "eta3_sparse", lambda n: builds.append(n) or eta3(n))
    series.clear_store()
    lengths = [512 + 137 * j for j in range(48)]
    for n in lengths:
        for m in (11, 257, n):
            series.delta_exact(m)
    assert len(builds) <= 1 + math.log(lengths[-1] / 11, 1.5)


def test_evaluate_delta_at_i():
    d = _delta(120)
    val, cert = oracles.evaluate(d, 12, 1j)
    # oracle: direct mpmath summation
    with mp.workdps(40):
        ref = sum(mp.mpf(d[n]) * mp.e ** (-2 * mp.pi * n) for n in range(1, 121))
    assert abs(val.real - float(ref)) < 1e-15 + cert
    assert abs(val.imag) < 1e-17
    assert abs(val.real - 0.0017853698) < 1e-9


def test_evaluate_periodicity():
    d = _delta(150)
    z = 0.3 + 1.0j
    v1, c1 = oracles.evaluate(d, 12, z)
    v2, c2 = oracles.evaluate(d, 12, z + 1)
    assert abs(v1 - v2) <= 2 * (c1 + c2) + 1e-15


def test_evaluate_modular_transformation():
    # Delta(-1/z) = z^12 Delta(z): level-1 transformation law
    d = _delta(400)
    for z in (0.2 + 1.1j, -0.4 + 0.9j, 0.05 + 1.7j):
        v1, c1 = oracles.evaluate(d, 12, -1 / z)
        v2, c2 = oracles.evaluate(d, 12, z)
        bound = c1 + abs(z) ** 12 * c2
        assert abs(v1 - z ** 12 * v2) <= bound + 1e-12


def test_evaluate_truncation_not_certified():
    d = _delta(30)
    with pytest.raises(ValueError, match="truncation not certified"):
        oracles.evaluate(d, 12, 0.0 + 0.05j)


def test_newform_roundtrip(tmp_path):
    f = mf.eigenforms(12, 10000)[0]
    rec = mf.newform_from_eigenform(f)
    path = tmp_path / "delta.nf"
    mf.write_newform(rec, path)
    back = mf.load_newform(path)
    assert back.weight == 12 and back.level == 1 and back.length == 10000
    assert np.max(np.abs(back.cn - rec.cn)) < 1e-15
    # one record type for f and g: g shares f's coefficients, and every cn is read-only
    assert type(back) is type(f) and rec.cn is f.cn
    assert back.cn.flags.writeable is False


def test_eigenforms_exact_length_read_only_and_stable():
    # The request order is fixed here: long, then short, then longer still,
    # on whatever the store holds and again from an empty store.
    # k = 40 (dim 3, monomial Delta^3 E4) is built exactly at every length.
    for k, long_n, short_n in ((12, 20000, 10000), (24, 3000, 100), (40, 3000, 100)):
        for clear in (False, True):
            if clear:
                series.clear_store()
            long_forms = mf.eigenforms(k, long_n)
            kept = [f.cn.copy() for f in long_forms]
            short_forms = mf.eigenforms(k, short_n)
            later = mf.eigenforms(k, 2 * long_n)
            for forms, n in ((long_forms, long_n), (short_forms, short_n),
                             (later, 2 * long_n)):
                assert len(forms) == mf.dim_cusp(k)
                for f in forms:
                    assert f.length == n and len(f.cn) == n + 1
                    assert f.cn.flags.writeable is False
                    with pytest.raises(ValueError):
                        f.cn[1] = 0.0
                    assert k % 12 == 0 or f.float_rel == 0.0
            # a float build of another length rounds its FFTs differently,
            # so past the exact head the two lengths agree to 1e-12 only
            cut = short_n + 1 if k % 12 else min(short_n + 1, 1025)
            for f, s, cn in zip(long_forms, short_forms, kept):
                assert np.array_equal(f.cn, cn)
                assert np.array_equal(s.cn[:cut], cn[:cut])
                assert np.allclose(s.cn, cn[: short_n + 1], rtol=0.0, atol=1e-12)


def test_newform_not_normalized(tmp_path):
    path = tmp_path / "bad.nf"
    path.write_text("weight 12\nlevel 1\ncount 3\n1 0.0\n2 1.0\n3 2.0\n")
    with pytest.raises(ValueError, match="not normalized"):
        mf.load_newform(path)


def test_newform_ramanujan_warning(tmp_path):
    path = tmp_path / "warn.nf"
    path.write_text("weight 12\nlevel 1\ncount 3\n1 1.0\n2 5.0\n3 0.1\n")
    with pytest.warns(UserWarning, match="Ramanujan violation"):
        mf.load_newform(path)


def test_newform_parse_failure(tmp_path):
    path = tmp_path / "garbled.nf"
    path.write_text("weight twelve\nlevel 1\n")
    with pytest.raises(ValueError, match="parse failure"):
        mf.load_newform(path)


@pytest.mark.parametrize("body,why", [
    ("1 1.0\n2 0.5\n9 0.1\n4 0.2\n5 0.3\n", "outside 1..5"),
    ("1 1.0\n2 0.5\n-1 0.1\n4 0.2\n5 0.3\n", "outside 1..5"),
    ("1 1.0\n2\n3 0.1\n4 0.2\n5 0.3\n", "line '2'"),
    ("1 1.0\n2.5 0.5\n3 0.1\n4 0.2\n5 0.3\n", "line '2.5 0.5'"),
    ("1 1.0\n2 0.5\n2 0.1\n4 0.2\n5 0.3\n", "index 2 repeated"),
    ("1 1.0\n2 0.5\n", "2 coefficient lines, count 5"),
    ("1 1.0\n2 0.5\n3 0.1\n4 0.2\n5 0.3\n3 0.4\n", "6 coefficient lines, count 5"),
    ("1 1.0\n2 0.5\n3 0.1\n4 0.2\n5 0.3\n6 0.4\n", "6 coefficient lines, count 5"),
])
def test_newform_bad_coefficient_lines(tmp_path, body, why):
    path = tmp_path / "bad.nf"
    path.write_text("weight 12\nlevel 1\ncount 5\n" + body)
    with pytest.raises(ValueError, match="parse failure: .*" + why):
        mf.load_newform(path)


def test_hecke_word_span_rank_checks():
    for k in (24, 36, 48):
        d = mf.dim_cusp(k)
        inv = mf._span_inverse(k, d)
        vecs = mf._span_raw_exact(k, d)
        for i in range(d):
            for r in range(d):
                assert sum(vecs[j][i + 1] * inv[j][r] for j in range(d)) == (i == r)


def test_rank_deficient_hecke_words_raise(monkeypatch):
    # repeated words span a line, not S_24: the coordinate step must refuse
    monkeypatch.setitem(mf._SPAN_WORDS, 2, [(), ()])
    series.clear_store()
    with pytest.raises(ArithmeticError, match="rank-deficient"):
        mf.eigenforms(24, 20000)


def test_separating_operator_fallback_logic(monkeypatch):
    # a T_2 with a repeated eigenvalue separates nothing: T_3 is chosen
    hecke = mf.hecke_matrix
    monkeypatch.setattr(mf, "hecke_matrix",
                        lambda k, m: [[540, 0], [0, 540]] if (k, m) == (24, 2) else hecke(k, m))
    series.clear_store()
    m, _, _ = mf._eigen_data(24)
    series.clear_store()
    assert m == 3
