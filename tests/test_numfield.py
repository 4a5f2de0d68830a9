from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from rsmoment.numfield import (Q_SQRT2, Q_SQRT5, FieldDescriptor, FieldElement, conj,
                               embed, get_field, is_totally_positive, norm,
                               totally_positive_units, trace)


def bisect_root(poly, lo, hi, iters=200):
    """Sign-change bisection oracle for a real root of poly."""
    flo = poly(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if (poly(mid) > 0) == (flo > 0):
            lo = mid
            flo = poly(mid)
        else:
            hi = mid
    return (lo + hi) / 2


def test_embed_sqrt5_against_bisection_oracle():
    # omega = (1+sqrt5)/2 is the larger root of t^2 - t - 1
    r1 = bisect_root(lambda t: t * t - t - 1, 1.0, 2.0)
    r2 = bisect_root(lambda t: t * t - t - 1, -1.0, 0.0)
    e = embed(Q_SQRT5.omega, 64)
    assert abs(float(e[0]) - r1) < 1e-12
    assert abs(float(e[1]) - r2) < 1e-12


def test_embed_sqrt2_against_bisection_oracle():
    r = bisect_root(lambda t: t * t - 2, 1.0, 2.0)
    x = Q_SQRT2.element(1, 1)  # 1 + sqrt2
    e = embed(x, 64)
    assert abs(float(e[0]) - (1 + r)) < 1e-12
    assert abs(float(e[1]) - (1 - r)) < 1e-12


coord = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(a1=coord, b1=coord, a2=coord, b2=coord, a3=coord, b3=coord)
@settings(max_examples=250, deadline=None)
def test_ring_axioms_exact_sqrt5(a1, b1, a2, b2, a3, b3):
    x = Q_SQRT5.element(a1, b1)
    y = Q_SQRT5.element(a2, b2)
    z = Q_SQRT5.element(a3, b3)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z


@given(a1=coord, b1=coord, a2=coord, b2=coord)
@settings(max_examples=250, deadline=None)
def test_norm_multiplicative_trace_additive_exact(a1, b1, a2, b2):
    for field in (Q_SQRT5, Q_SQRT2):
        x = field.element(a1, b1)
        y = field.element(a2, b2)
        assert norm(x * y) == norm(x) * norm(y)
        assert trace(x + y) == trace(x) + trace(y)
        xc = x * conj(x)
        assert xc.b == 0 and xc.a == norm(x)


def test_embed_product_matches_norm_to_precision():
    prec = 64
    for field in (Q_SQRT5, Q_SQRT2):
        for (a, b) in [(3, 2), (-5, 7), (Fraction(1, 3), Fraction(2, 5)), (11, -4)]:
            x = field.element(a, b)
            if x.is_zero():
                continue
            e = embed(x, prec)
            prod = float(e[0] * e[1])
            nrm = float(norm(x))
            assert abs(prod - nrm) <= 2.0 ** (-(prec - 8)) * max(1.0, abs(nrm))
            assert abs(float(e[0] + e[1]) - float(trace(x))) < 1e-12 * max(1, abs(float(trace(x))))


def test_totally_positive_examples():
    assert is_totally_positive(Q_SQRT5.element(1, 1))      # 1 + omega
    assert not is_totally_positive(Q_SQRT5.omega)          # second embedding < 0
    assert is_totally_positive(Q_SQRT5.element(3))
    with pytest.raises(ValueError, match="zero element"):
        is_totally_positive(Q_SQRT5.element(0))


def test_totally_positive_units_sqrt5():
    # height(eps0^{2t}) = 2|t| log eps0; bound 10 admits t in {-2..2}
    # (eps0^4 = 6.854... <= 10, so five units, not three)
    eps_sq = Q_SQRT5.element(1, 1)  # (3+sqrt5)/2 = 1 + omega = eps0^2
    assert Q_SQRT5.eps0 * Q_SQRT5.eps0 == eps_sq
    units = totally_positive_units(Q_SQRT5, 10.0)
    expect = {Q_SQRT5.one, eps_sq, Q_SQRT5.one / eps_sq,
              eps_sq * eps_sq, Q_SQRT5.one / (eps_sq * eps_sq)}
    assert set(units) == expect
    units3 = totally_positive_units(Q_SQRT5, 3.0)
    assert set(units3) == {Q_SQRT5.one, eps_sq, Q_SQRT5.one / eps_sq}
    assert totally_positive_units(Q_SQRT5, 1.0) == [Q_SQRT5.one]


def test_unit_set_closed_under_inversion_and_unit_norms():
    for field in (Q_SQRT5, Q_SQRT2):
        units = totally_positive_units(field, 300.0)
        assert field.one in units
        uset = set(units)
        for u in units:
            assert field.one / u in uset
            assert abs(norm(u)) == 1
            assert is_totally_positive(u)


def test_fundamental_unit_norms():
    assert norm(Q_SQRT5.eps0) == -1
    assert norm(Q_SQRT2.eps0) == -1
    # embeddings of eps0 multiply to the unit norm
    for field in (Q_SQRT5, Q_SQRT2):
        e = embed(field.eps0, 80)
        assert abs(float(e[0] * e[1]) - float(norm(field.eps0))) < 1e-15
    # a unit of norm +1 (3 + 2 sqrt2 = eps0^2) is refused as eps0
    with pytest.raises(ValueError, match="norm -1"):
        FieldDescriptor(key="Q_sqrt2", omega_trace=0, omega_norm=-2, fundamental_unit=(3, 2))


def test_get_field():
    assert get_field("Q_sqrt5") is Q_SQRT5
    with pytest.raises(ValueError):
        get_field("Q_sqrt3")


def test_different_generator_totally_positive_square_is_disc():
    assert (Q_SQRT5.discriminant, Q_SQRT2.discriminant) == (5, 8)
    for field in (Q_SQRT5, Q_SQRT2):
        d = field.different_gen
        assert is_totally_positive(d)
        assert abs(norm(d)) == field.discriminant
