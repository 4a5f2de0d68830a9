import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rsmoment import series, tracefmla as tf
from rsmoment.numfield import (Q_SQRT2, Q_SQRT5, FieldElement, embed_float,
                               is_totally_positive, norm, totally_positive_units, trace)


def kq_oracle(m, n, c):
    """Independent complex-exponential enumeration."""
    if c == 1:
        return 1.0 + 0.0j
    tot = 0.0 + 0.0j
    for x in range(1, c):
        if math.gcd(x, c) == 1:
            xb = pow(x, -1, c)
            tot += cmath.exp(2j * math.pi * (m * x + n * xb) / c)
    return tot


def test_kq_spec_examples():
    assert tf.kloosterman_q(1, 1, 1) == 1.0
    assert abs(tf.kloosterman_q(1, 1, 2) - 1.0) < 1e-12
    assert abs(tf.kloosterman_q(1, 1, 3) + 1.0) < 1e-12


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 120))
@settings(max_examples=80, deadline=None)
def test_kq_oracle_symmetry_and_realness(m, n, c):
    v = tf.kloosterman_q(m, n, c)
    o = kq_oracle(m, n, c)
    assert abs(v - o.real) < 1e-8
    assert abs(o.imag) < 1e-10
    assert abs(v - tf.kloosterman_q(n, m, c)) < 1e-9


def test_kq_weil_bound_sample():
    for c in (7, 36, 125, 343, 499):
        for (m, n) in ((1, 1), (2, 5), (4, 6)):
            s = abs(tf.kloosterman_q(m, n, c))
            dc = sum(1 for d in range(1, c + 1) if c % d == 0)
            bound = dc * math.sqrt(math.gcd(m, math.gcd(n, c))) * math.sqrt(c)
            assert s <= bound + 1e-8


def row_by_phase_sum(n, c):
    """(S(r, n; c))_{r mod c} summed directly: phi(c) cosines of integer
    phases mod c for every r."""
    xs = np.array([x for x in range(c) if math.gcd(x, c) == 1], dtype=np.int64)
    inv = np.array([pow(int(x), -1, c) for x in xs], dtype=np.int64)
    ang = (np.outer(np.arange(c), xs) + inv * (n % c)) % c
    return np.cos(2.0 * math.pi / c * ang).sum(axis=1)


def test_kloosterman_row_matches_pointwise():
    row = tf.kloosterman_row(3, 35)
    for r in (0, 1, 8, 34):
        assert abs(row[r] - kq_oracle(r, 3, 35)) < 1e-10


def test_kloosterman_row_matches_phase_sum():
    """Every row S(., n; c) for c <= 500 against the direct phase sum, and
    entries of the c = 10,007 row against the complex enumeration."""
    for n in (1, 3):
        for c in range(1, 501):
            ref = row_by_phase_sum(n, c)
            assert np.max(np.abs(tf.kloosterman_row(n, c) - ref)) < 1e-9, (n, c)
    row = tf.kloosterman_row(5, 10007)
    for r in (0, 1, 3, 10006):
        o = kq_oracle(r, 5, 10007)
        assert abs(row[r] - o.real) < 1e-9 and abs(o.imag) < 1e-9, r
    assert tf.kloosterman_q(3, 5, 10007) == row[3]


def test_box_sums_refuses_a_non_character():
    """x -> e(x/12) is no character of Z/6, so no FFT frequency reads it."""
    one = np.array([[1, 0]])
    with pytest.raises(AssertionError, match="not a character"):
        tf._box_sums(6, 1, np.array([1, 5]), np.zeros(2, dtype=np.int64), np.zeros(2), 12, one)


# -- number field -------------------------------------------------------------

def box_of(c):
    return tf._residue_box(c.field, tf._coords(c))


def kl_nf_one(field, alpha, beta, c):
    return complex(tf._kl_nf_slots(field, [tf._coords(alpha)], tf._coords(beta), tf._coords(c))[0])


def reduce_mod(x, box):
    """The representative of x in the HNF box ``box``."""
    h11, h12, h22 = box
    a, b = int(x.a), int(x.b)
    k2 = b // h22
    return x.field.element((a - k2 * h12) % h11, b - k2 * h22)


def nf_oracle(field, alpha, beta, c):
    """Brute-force: rectangle residues, pairwise-product inverse search."""
    nc = abs(int(norm(c)))
    box = box_of(c)
    residues = {}
    for a in range(2 * nc):
        for b in range(2 * nc):
            x = reduce_mod(field.element(a, b), box)
            residues[(x.a, x.b)] = x
    delta = field.different_gen
    tot = 0.0 + 0.0j
    for x in residues.values():
        inv = None
        for y in residues.values():
            r = reduce_mod(x * y - field.one, box)
            if r.a == 0 and r.b == 0:
                inv = y
                break
        if inv is None:
            continue
        ph = (trace(alpha * x / (delta * c)) + trace(beta * delta * inv / c)) % 1
        tot += cmath.exp(2j * math.pi * float(ph))
    return tot


def test_kl_nf_unit_modulus():
    q = tf.KloostermanQuery(alpha=Q_SQRT5.one, beta=Q_SQRT5.one,
                            c=Q_SQRT5.eps0 * Q_SQRT5.eps0)
    assert tf.kloosterman_nf(q) == 1.0


def test_kl_nf_inert_two_sqrt5():
    c2 = Q_SQRT5.element(2)
    x1, x2, b1, b2 = tf._residue_data(Q_SQRT5, (2, 0), box_of(c2))
    assert len(x1) == 3  # (O/2)^x has 3 units: 2 is inert, N(c) = 4
    v = tf.kloosterman_nf(tf.KloostermanQuery(alpha=Q_SQRT5.one, beta=Q_SQRT5.one, c=c2))
    o = nf_oracle(Q_SQRT5, Q_SQRT5.one, Q_SQRT5.one, c2)
    assert abs(v - o.real) < 1e-9 and abs(o.imag) < 1e-9


@pytest.mark.parametrize("field", [Q_SQRT5, Q_SQRT2])
def test_kl_nf_against_bruteforce_sample(field):
    gens = tf._ideal_generators_canonical(field, 60)
    alpha = field.element(1, 1) if is_totally_positive(field.element(1, 1)) \
        else field.element(3, 1)
    for c, nc in gens[:18]:
        q = tf.KloostermanQuery(alpha=alpha, beta=field.one, c=c)
        v = tf.kloosterman_nf(q)
        o = nf_oracle(field, alpha, field.one, c)
        assert abs(v - o.real) < 1e-8, (c, v, o)
        assert abs(o.imag) < 1e-8


def test_kl_nf_exact_phase_agreement():
    """The per-modulus kernel against exact rational phases: at every unit
    slot u*nu of height <= 50 and beta in {xi, 1} over every modulus of norm
    <= 60, and at the slots eta*nu, eta in {1, eps0^2, eps0^-2}, with
    beta = xi over every modulus of norm <= 200 of both fields.  Only the
    implementation is checked here, not the slot symmetry."""
    carry = 0
    for field, nu, xi in ((Q_SQRT5, Q_SQRT5.element(1, 1), Q_SQRT5.element(2, 1)),
                          (Q_SQRT2, Q_SQRT2.element(2, -1), Q_SQRT2.element(3, 1))):
        alphas = [u * nu for u in totally_positive_units(field, 50.0)]
        assert len(alphas) >= 5
        e2 = field.eps0 * field.eps0
        near = [nu, e2 * nu, nu / e2]
        assert all(a in alphas for a in near)
        for c, nc in tf._ideal_generators_canonical(field, 200):
            _, h12, h22 = box_of(c)
            carry += h22 > 1 and h12 != 0
            slots, betas = (alphas, (xi, field.one)) if nc <= 60 else (near, (xi,))
            coords = [tf._coords(a) for a in slots]
            for beta in betas:
                fast = tf._kl_nf_slots(field, coords, tf._coords(beta), tf._coords(c))
                for a, v in zip(slots, fast):
                    slow = oracles.kl_nf_exact_phase(field, a, beta, c)
                    assert abs(v - slow) < 1e-9, (field.key, a, beta, c, v, slow)
    # moduli whose box has a carry (h12 != 0 with h22 > 1) are covered
    assert carry > 0


def test_kl_nf_rejects_non_integral_data():
    half = Q_SQRT5.element(1) / 2
    three = Q_SQRT5.element(3)
    # int() would truncate 1/2 to 0 and give -1.0; the exact sum is 2 - 3.46i
    exact = oracles.kl_nf_exact_phase(Q_SQRT5, half, Q_SQRT5.one, three)
    assert abs(exact - (2 - 2j * math.sqrt(3))) < 1e-9
    with pytest.raises(ValueError, match="must be integral"):
        tf.KloostermanQuery(alpha=half, beta=Q_SQRT5.one, c=three)
    with pytest.raises(ValueError, match="not integral"):
        kl_nf_one(Q_SQRT5, half, Q_SQRT5.one, three)
    with pytest.raises(ValueError, match="must be integral"):
        tf.KloostermanQuery(alpha=Q_SQRT5.one, beta=Q_SQRT5.one, c=three / 2)
    with pytest.raises(ValueError, match="not integral"):
        kl_nf_one(Q_SQRT5, Q_SQRT5.one, Q_SQRT5.one, three / 2)


def inverse_by_product_scan(field, x, c):
    """The residue y in the HNF box of (c) with x*y = 1 mod (c)."""
    box = box_of(c)
    h11, _, h22 = box
    for y2 in range(h22):
        for y1 in range(h11):
            y = field.element(y1, y2)
            r = reduce_mod(x * y - field.one, box)
            if r.a == 0 and r.b == 0:
                return y
    raise AssertionError("x is not invertible mod (c)")


def test_kl_nf_crt_factorization():
    field = Q_SQRT5
    # c1 = (2) inert (norm 4), c2 = (2 + omega) of norm 5: coprime
    c1 = field.element(2)
    c2 = field.element(2, 1)
    assert is_totally_positive(c2) and int(norm(c2)) == 5
    c = c1 * c2
    alpha = field.element(1, 1)
    beta = field.one
    direct = kl_nf_one(field, alpha, beta, c)
    # CRT: x = x1 c2 c2* + x2 c1 c1*; the factor sums are the same
    # Kloosterman sums with both slots twisted by the complementary inverse
    inv_c2_mod_c1 = inverse_by_product_scan(field, c2, c1)
    inv_c1_mod_c2 = inverse_by_product_scan(field, c1, c2)
    kl1 = kl_nf_one(field, alpha * inv_c2_mod_c1, beta * inv_c2_mod_c1, c1)
    kl2 = kl_nf_one(field, alpha * inv_c1_mod_c2, beta * inv_c1_mod_c2, c2)
    assert abs(direct - kl1 * kl2) < 1e-8


def test_residue_tables_built_once_per_ideal(monkeypatch):
    """Every Q(sqrt2) ideal of norm <= 1000 (623, more than any small LRU
    holds) builds its table once, whichever generator asks for it."""
    field = Q_SQRT2
    gens = [c for c, _ in tf._ideal_generators_canonical(field, 1000)]
    assert len(gens) == 623
    calls = [0]
    build = tf._build_residues

    def counting(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(tf, "_build_residues", counting)
    alpha = field.element(3, 1)

    def sweep(moduli):
        start = calls[0]
        vals = [tf.kloosterman_nf(tf.KloostermanQuery(alpha=alpha, beta=field.one, c=c))
                for c in moduli]
        return vals, calls[0] - start

    series.clear_store()
    first, built = sweep(gens)
    assert built > 0
    again, built = sweep(gens)
    assert built == 0 and again == first
    # another generator of each ideal reads the same table, and gets the
    # bits a table built from that generator gives
    other = [field.eps0 * c for c in gens]
    shared, built = sweep(other)
    assert built == 0
    series.clear_store()
    fresh, _ = sweep(other[:150])
    assert fresh == shared[:150]


def test_residue_enumeration_cap():
    big = Q_SQRT5.element(200, 0)  # norm 40,000, above the 10,000 limit
    with pytest.raises(ValueError, match="overflow"):
        kl_nf_one(Q_SQRT5, Q_SQRT5.one, Q_SQRT5.one, big)
    with pytest.raises(ValueError, match="overflow"):
        oracles.kl_nf_exact_phase(Q_SQRT5, Q_SQRT5.one, Q_SQRT5.one, big)


def units_by_product_scan(field, box):
    """How many residues of the HNF box have some y with x*y - 1 in (c),
    in plain integer coordinates."""
    t, n = field.omega_trace, field.omega_norm
    h11, h12, h22 = box
    y2, y1 = np.divmod(np.arange(h11 * h22), h11)
    count = 0
    for x1, x2 in zip(y1, y2):
        p1 = x1 * y1 - n * x2 * y2 - 1
        p2 = x1 * y2 + x2 * y1 + t * x2 * y2
        in_c = (p2 % h22 == 0) & ((p1 - p2 // h22 * h12) % h11 == 0)
        count += bool(in_c.any())
    return count


@pytest.mark.parametrize("field", [Q_SQRT5, Q_SQRT2])
def test_residue_tables_invert_every_unit(field):
    """Every ideal of norm 2..200: each row has x*b = 1 mod (c), reduced in
    the HNF box, and the rows are exactly the residues a product scan finds
    invertible, so the shifted inverses (N(x) not a unit mod N(c)) miss no
    unit.  N(c) = 1 never reads a table."""
    shifted = 0
    for c, nc in tf._ideal_generators_canonical(field, 200)[1:]:
        box = box_of(c)
        x1, x2, b1, b2 = tf._residue_data(field, tf._coords(c), box)
        for i in range(len(x1)):
            x = field.element(int(x1[i]), int(x2[i]))
            b = field.element(int(b1[i]), int(b2[i]))
            assert reduce_mod(x * b - field.one, box) == field.element(0), (c, x, b)
            shifted += math.gcd(int(norm(x)), nc) != 1
        assert len(x1) == units_by_product_scan(field, box), (c, nc)
    assert shifted > 0


# -- trace formula RHS, degree 1 -------------------------------------------------

def test_rhs_q_computed_anchor_values():
    # J_11(4 pi) = 0.291338... is not small: the diagonal at k = 12 is ~2.84
    got = tf.petersson_rhs_q(1, 1, 12)
    assert abs(got.value - 2.84028738) < 1e-6
    assert got.certificate < 1e-10


def test_rhs_q_diagonal_monotone_to_one():
    vals = [abs(tf.petersson_rhs_q(1, 1, k).value - 1.0) for k in (12, 16, 20, 24)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_rhs_q_offdiagonal_suppressed_at_high_weight():
    got = tf.petersson_rhs_q(1, 2, 30)
    assert abs(got.value) < 0.05


def test_rhs_q_tail_certificate_honored_under_doubling():
    a = tf.petersson_rhs_q(2, 3, 16, c_max=40, tol=1.0)
    b = tf.petersson_rhs_q(2, 3, 16, c_max=80, tol=1.0)
    assert abs(a.value - b.value) <= a.certificate


def test_rhs_q_certificate_against_4x_c_range():
    # the auto-sized c range, summed to four times its end, moves the value by
    # at most the certificate, plus 1e-14 relative for rounding, which the
    # certificate (truncation only) does not cover
    x = 4.0 * math.pi
    c_max = max(8, int(x / 2) + 1)
    while tf._rhs_q_tail(x, 12, c_max) > 1e-10:
        c_max *= 2
    short = tf.petersson_rhs_q(1, 1, 12)
    assert short.certificate == tf._rhs_q_tail(x, 12, c_max)
    long = tf.petersson_rhs_q(1, 1, 12, c_max=4 * c_max)
    gap = abs(long.value - short.value)
    assert gap <= short.certificate + 1e-14 * max(1.0, abs(short.value)), gap


def test_rhs_q_paper_literal_fold():
    for (m, n, k) in ((2, 3, 16), (1, 1, 12), (4, 9, 20)):
        lit = oracles.petersson_rhs_q_paper_literal(m, n, k, 60)
        fold = tf.petersson_rhs_q(m, n, k, c_max=60, tol=1.0)
        assert abs(lit - fold.value) < 1e-12


def test_rhs_q_uncertified_error():
    with pytest.raises(tf.UncertifiedError):
        tf.petersson_rhs_q(1, 1, 12, c_max=2, tol=1e-12)


# -- trace formula RHS, degree 2 --------------------------------------------------

def test_rhs_nf_diagonal_detection():
    one = Q_SQRT5.one
    eps2 = Q_SQRT5.eps0 ** 2
    p = tf.TraceRHSParams(weight_vec=(20, 20), c_norm_bound=60,
                          unit_height_bound=30.0, tol=1e-4)
    v_diag = tf.petersson_rhs_nf(one, one, p)
    v_unit = tf.petersson_rhs_nf(eps2, one, p)  # nu = unit * xi: still diagonal
    assert abs(v_diag.value - v_unit.value) < 2e-5


def test_rhs_nf_value_and_stability_sqrt5():
    one = Q_SQRT5.one
    p1 = tf.TraceRHSParams(weight_vec=(20, 20), c_norm_bound=150,
                           unit_height_bound=50.0, tol=1e-6)
    a = tf.petersson_rhs_nf(one, one, p1)
    assert 0.5 < a.value < 1.5
    p2 = tf.TraceRHSParams(weight_vec=(20, 20), c_norm_bound=300,
                           unit_height_bound=2500.0, tol=1e-6)
    b = tf.petersson_rhs_nf(one, one, p2)
    assert abs(a.value - b.value) < 1e-6


def test_rhs_nf_swap_symmetry():
    nu = Q_SQRT5.element(1, 1)
    xi = Q_SQRT5.element(2, 1)  # totally positive, norm 5
    p = tf.TraceRHSParams(weight_vec=(22, 22), c_norm_bound=120,
                          unit_height_bound=50.0, tol=1e-5)
    a = tf.petersson_rhs_nf(nu, xi, p)
    b = tf.petersson_rhs_nf(xi, nu, p)
    assert abs(a.value - b.value) < 1e-10


@pytest.mark.parametrize("nu,xi", [((-1, 0), (1, 0)), ((1, 0), (1, -2)), ((0, 1), (1, 0))])
def test_rhs_nf_rejects_non_totally_positive(nu, xi):
    p = tf.TraceRHSParams(weight_vec=(20, 20), c_norm_bound=60,
                          unit_height_bound=30.0, tol=1e-4)
    with pytest.raises(ValueError, match="totally positive"):
        tf.petersson_rhs_nf(Q_SQRT5.element(*nu), Q_SQRT5.element(*xi), p)


def test_rhs_nf_unit_translates_crushed_at_high_weight():
    one = Q_SQRT5.one
    base = tf.TraceRHSParams(weight_vec=(30, 30), c_norm_bound=100,
                             unit_height_bound=1.0, tol=1e-6)
    wide = tf.TraceRHSParams(weight_vec=(30, 30), c_norm_bound=100,
                             unit_height_bound=float(embed_float(Q_SQRT5.eps0)[0]) ** 4,
                             tol=1e-6)
    a = tf.petersson_rhs_nf(one, one, base)
    b = tf.petersson_rhs_nf(one, one, wide)
    assert abs(a.value - b.value) < 1e-8


def test_rhs_nf_geometry_embedded_once(monkeypatch):
    """Two calls with the same (field, bounds) embed each canonical modulus
    and each unit once; the second call embeds only nu and xi."""
    field = Q_SQRT5
    p = tf.TraceRHSParams(weight_vec=(20, 20), c_norm_bound=100,
                          unit_height_bound=50.0, tol=1e-4)
    nu, xi = field.element(1, 1), field.element(2, 1)
    calls = []
    embed = tf.embed_float

    def counting(x):
        calls.append(x)
        return embed(x)

    monkeypatch.setattr(tf, "embed_float", counting)
    series.clear_store()
    first = tf.petersson_rhs_nf(nu, xi, p)
    n_first = len(calls)
    assert n_first == (len(tf._ideal_generators_canonical(field, 100))
                       + len(totally_positive_units(field, 50.0)) + 2)
    again = tf.petersson_rhs_nf(nu, xi, p)
    assert calls[n_first:] == [nu, xi]
    assert again == first


def stop_free_certificate(nu, xi, params, t_max=300):
    """The degree-2 certificate with every unit-translate sum taken over all
    t <= t_max, no stop rule: the same terms, |J| <= min(0.7, series bound)."""
    field = nu.field
    k1, k2 = params.weight_vec
    s = float(embed_float(field.eps0)[0])
    t = np.arange(t_max + 1.0)
    st = s ** t

    def capped(k, y):
        with np.errstate(over="ignore", divide="ignore"):
            return np.minimum(0.7, np.exp((k - 1) * np.log(y / 2.0) - math.lgamma(k)))

    def both_ways(x1, x2, t_up, t_down):
        up = capped(k1, np.outer(x1, st)) * capped(k2, np.outer(x2, 1.0 / st))
        down = capped(k1, np.outer(x1, 1.0 / st)) * capped(k2, np.outer(x2, st))
        return (up * (t >= t_up)).sum(axis=1) + (down * (t >= t_down)).sum(axis=1)

    x = 4.0 * math.pi * np.sqrt(np.array(embed_float(nu)) * np.array(embed_float(xi)))
    gens = tf._ideal_generators_canonical(field, params.c_norm_bound)
    c_emb = np.abs(np.array([embed_float(c) for c, _ in gens]))
    norms = np.array([nc for _, nc in gens], dtype=float)
    t_start = int(math.floor(math.log(params.unit_height_bound) / (2 * math.log(s)))) + 1
    eta_tail = np.sum(both_ways(x[0] / c_emb[:, 0], x[1] / c_emb[:, 1], t_start, t_start) / norms)
    n0 = params.c_norm_bound + 1
    big = np.arange(n0, 8 * n0, dtype=float)
    per_eta = both_ways(x[0] * s * s / np.sqrt(big), x[1] * s * s / np.sqrt(big), 0, 1)
    c_tail = (np.sum(np.sqrt(3.0 * big) * per_eta) + math.sqrt(3.0) * per_eta[-1]
              * (8 * n0 - 1) ** 1.5 / ((k1 + k2 - 2) / 2.0 - 1.5))
    C = (2.0 * math.pi) ** 2 / (2.0 * math.sqrt(field.discriminant))
    return 2.0 * C * (eta_tail + c_tail)


@pytest.mark.parametrize("field,nu,xi,kvec,bound,height", [
    (Q_SQRT2, (1, 0), (1, 0), (4, 40), 300, 50.0),
    (Q_SQRT5, (1, 0), (1, 0), (4, 40), 100, 50.0),
    (Q_SQRT5, (1, 0), (1, 0), (20, 20), 300, 2500.0),
    (Q_SQRT2, (2, -1), (2, 0), (20, 24), 1000, 50.0),
])
def test_rhs_nf_certificate_dominates_stop_free_sum(field, nu, xi, kvec, bound, height):
    """The J-product grows like eps1^(|k1 - k2| t) until one factor reaches its
    cap, so a sum stopped at its first small term can miss most of the tail."""
    p = tf.TraceRHSParams(weight_vec=kvec, c_norm_bound=bound,
                          unit_height_bound=height, tol=math.inf)
    nu, xi = field.element(*nu), field.element(*xi)
    cert = tf.petersson_rhs_nf(nu, xi, p).certificate
    assert cert >= stop_free_certificate(nu, xi, p) * (1 - 1e-12)


# -- unit sums -------------------------------------------------------------------

def test_unit_sum_examples():
    eps1 = float(embed_float(Q_SQRT5.eps0)[0])
    out = tf.unit_sum_tail(Q_SQRT5, 1.0, eps1 ** 32)
    assert out.certificate < 1e-6
    assert out.value > 1.0
    assert tf.unit_sum_tail(Q_SQRT5, 1.0, 1.0).value == 1.0
    assert math.isinf(tf.unit_sum_tail(Q_SQRT5, 0.0, 10.0).certificate)


def test_unit_sum_cauchy():
    eps1 = float(embed_float(Q_SQRT2.eps0)[0])
    prev = None
    for t in (4, 8, 16, 32):
        out = tf.unit_sum_tail(Q_SQRT2, 1.0, eps1 ** t)
        if prev is not None:
            assert abs(out.value - prev.value) <= prev.certificate + 1e-15
        prev = out
