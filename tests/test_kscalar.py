"""Scalar algebra over R, C, H: products, conjugation, vectors, parsing."""

import random
from fractions import Fraction

import pytest

from isoframe.kscalar import (
    Field,
    KElement,
    KVector,
    basis_product,
    cayley_point,
    inner_product,
    k_conj,
    k_mul,
    k_norm_sq,
    rational_unit_scalars,
    scalar_from_str,
    scalar_to_str,
)

FIELDS = (Field.R, Field.C, Field.H)


def random_element(field, rng, span=6):
    comps = [Fraction(rng.randint(-span, span), rng.randint(1, 4))
             for _ in range(field.real_dimension)]
    return KElement(field, tuple(comps))


def random_vector(field, m, rng, span=6):
    return KVector(field, tuple(random_element(field, rng, span) for _ in range(m)))


def test_field_dimensions():
    assert Field.R.real_dimension == 1
    assert Field.C.real_dimension == 2
    assert Field.H.real_dimension == 4
    assert Field.from_tag("R") is Field.R
    assert Field.from_tag("H") is Field.H
    with pytest.raises(ValueError):
        Field.from_tag("O")


def test_basis_product_hamilton_table():
    # i*j=k, j*k=i, k*i=j and the anti-commutations.
    assert basis_product(Field.H, 1, 2) == (3, 1)
    assert basis_product(Field.H, 2, 1) == (3, -1)
    assert basis_product(Field.H, 2, 3) == (1, 1)
    assert basis_product(Field.H, 3, 2) == (1, -1)
    assert basis_product(Field.H, 3, 1) == (2, 1)
    assert basis_product(Field.H, 1, 3) == (2, -1)
    for c in range(4):
        assert basis_product(Field.H, 0, c) == (c, 1)
        assert basis_product(Field.H, c, 0) == (c, 1)
    for c in range(1, 4):
        assert basis_product(Field.H, c, c) == (0, -1)
    assert basis_product(Field.C, 1, 1) == (0, -1)


@pytest.mark.parametrize("field", FIELDS)
def test_multiplication_associative(field):
    rng = random.Random(11)
    for _ in range(40):
        a = random_element(field, rng)
        b = random_element(field, rng)
        c = random_element(field, rng)
        assert k_mul(k_mul(a, b), c) == k_mul(a, k_mul(b, c))


@pytest.mark.parametrize("field", FIELDS)
def test_conjugation_antihomomorphism(field):
    rng = random.Random(12)
    for _ in range(40):
        a = random_element(field, rng)
        b = random_element(field, rng)
        assert k_conj(k_mul(a, b)) == k_mul(k_conj(b), k_conj(a))
        assert k_conj(k_conj(a)) == a


@pytest.mark.parametrize("field", FIELDS)
def test_norm_multiplicative(field):
    rng = random.Random(13)
    for _ in range(40):
        a = random_element(field, rng)
        b = random_element(field, rng)
        assert k_norm_sq(k_mul(a, b)) == k_norm_sq(a) * k_norm_sq(b)
        assert k_mul(a, k_conj(a)) == KElement.from_real(field, k_norm_sq(a))


def test_quaternions_noncommutative():
    zero, one = Fraction(0), Fraction(1)
    i = KElement(Field.H, (zero, one, zero, zero))
    j = KElement(Field.H, (zero, zero, one, zero))
    k = KElement(Field.H, (zero, zero, zero, one))
    assert k_mul(i, j) == k
    assert k_mul(j, i) == -k


def test_element_arithmetic_and_scale():
    a = KElement(Field.C, (Fraction(1), Fraction(2)))
    b = KElement(Field.C, (Fraction(3), Fraction(-1)))
    assert a + b == KElement(Field.C, (Fraction(4), Fraction(1)))
    assert a - b == KElement(Field.C, (Fraction(-2), Fraction(3)))
    assert a.scale(Fraction(1, 2)) == KElement(Field.C, (Fraction(1, 2), Fraction(1)))
    with pytest.raises(ValueError):
        a + KElement.one(Field.R)


def test_element_component_count_enforced():
    with pytest.raises(ValueError):
        KElement(Field.H, (Fraction(1), Fraction(0)))


@pytest.mark.parametrize("field", FIELDS)
def test_inner_product_conjugate_linear_first(field):
    rng = random.Random(14)
    for _ in range(25):
        x = random_vector(field, 3, rng)
        y = random_vector(field, 3, rng)
        s = random_element(field, rng)
        # <x*s, y> = conj(s) <x, y> and <x, y*s> = <x, y> s
        assert inner_product(x.scale_right(s), y) == k_mul(k_conj(s), inner_product(x, y))
        assert inner_product(x, y.scale_right(s)) == k_mul(inner_product(x, y), s)
        assert inner_product(y, x) == k_conj(inner_product(x, y))


@pytest.mark.parametrize("field", FIELDS)
def test_inner_product_norm(field):
    rng = random.Random(15)
    for _ in range(25):
        x = random_vector(field, 2, rng)
        ip = inner_product(x, x)
        assert ip == KElement.from_real(field, x.norm_sq())
        assert x.norm_sq() >= 0


def test_vector_helpers():
    e1 = KVector.canonical(Field.H, 3, 0)
    assert e1.m == 3
    assert not e1.is_zero
    assert e1.norm_sq() == 1
    v = KVector.from_reals(Field.C, [Fraction(1), Fraction(-2)])
    assert v.real_coords() == (Fraction(1), Fraction(0), Fraction(-2), Fraction(0))
    w = v + v
    assert w.real_coords() == (Fraction(2), Fraction(0), Fraction(-4), Fraction(0))
    assert (v - v).is_zero
    assert v.scale_real(Fraction(3)).norm_sq() == 9 * v.norm_sq()


def test_cayley_point_unit_norm():
    rng = random.Random(16)
    for _ in range(50):
        d = rng.choice((1, 2, 4))
        params = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(d - 1))
        pt = cayley_point(params)
        assert len(pt) == d
        assert sum(c * c for c in pt) == 1
        assert all(isinstance(c, Fraction) for c in pt)


def test_cayley_point_zero_params_is_one():
    assert cayley_point(()) == (Fraction(1),)
    assert cayley_point((Fraction(0), Fraction(0), Fraction(0))) == \
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


@pytest.mark.parametrize("field", FIELDS)
def test_rational_unit_scalars(field):
    scalars = rational_unit_scalars(field, 30, seed=5)
    assert len(scalars) == 30
    for s in scalars:
        assert s.field is field
        assert k_norm_sq(s) == 1
        assert s.is_exact
    # deterministic in the seed
    assert rational_unit_scalars(field, 30, seed=5) == scalars
    assert rational_unit_scalars(field, 30, seed=6) != scalars


def test_scalar_string_round_trip_exact():
    values = [Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(10, 4)]
    for v in values:
        text = scalar_to_str(v)
        assert "/" in text or text.lstrip("-").isdigit()
        back = scalar_from_str(text)
        assert back == v and isinstance(back, Fraction)


def test_scalar_string_round_trip_float():
    values = [0.5, -1.25e-9, 3.141592653589793, 2e300]
    for v in values:
        back = scalar_from_str(scalar_to_str(v))
        assert isinstance(back, float) and back == v


def test_scalar_from_str_rejects_garbage():
    for text in ("", "1/0", "two", "1/2/3", "nan?", "1_0", "1/2_0", "1_0.5"):
        with pytest.raises(ValueError):
            scalar_from_str(text)
