"""Homogeneous forms, sphere moments, and the induced inner product."""

import math
import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from isoframe.forms import (
    RealForm,
    _pack,
    _packed_product,
    _packed_square,
    _unpack,
    form_inner,
    frame_form,
    linear_combination,
    monomials,
    norm_power_form,
    sphere_moment,
)
from isoframe.frames import catalog
from isoframe.kscalar import Field, KElement, KVector, inner_product, k_norm_sq
from isoframe.phi import unit_group_average


def gamma_half_int(twice: int):
    """Gamma(twice/2) as (rational, power of sqrt(pi)); twice >= 1."""
    if twice % 2 == 0:
        n = twice // 2
        return Fraction(math.factorial(n - 1)), 0
    # Gamma(k + 1/2) = (2k)! / (4^k k!) * sqrt(pi)
    k = (twice - 1) // 2
    return Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k)), 1


def moment_oracle(beta, num_vars):
    """Independent derivation: Gamma(N/2) prod Gamma(b_i + 1/2)
    / (Gamma(1/2)^N Gamma(N/2 + a)), computed exactly over Q."""
    if any(b % 2 for b in beta):
        return Fraction(0)
    halves = [b // 2 for b in beta]
    a = sum(halves)
    num, sqrt_pi = gamma_half_int(num_vars)
    for h in halves:
        r, s = gamma_half_int(2 * h + 1)
        num *= r
        sqrt_pi += s
    den, s = gamma_half_int(num_vars + 2 * a)
    sqrt_pi -= s + num_vars
    assert sqrt_pi == 0, "sqrt(pi) powers must cancel"
    return num / den


def grlex_key(expo):
    """Sort key for the canonical graded-lex order that `monomials` and the
    `phi_basis` labels follow: degree first, then descending lex."""
    return (sum(expo), tuple(-e for e in expo))


def test_monomials_count_and_order():
    for n, d in ((1, 4), (2, 4), (3, 2), (4, 3), (8, 2)):
        mons = monomials(n, d)
        assert len(mons) == math.comb(n + d - 1, d)
        assert all(sum(e) == d and len(e) == n for e in mons)
        keys = [grlex_key(e) for e in mons]
        assert keys == sorted(keys)
        assert len(set(mons)) == len(mons)


def test_grlex_orders_by_degree_first():
    assert grlex_key((2, 0)) < grlex_key((3, 0))
    assert grlex_key((3, 0)) < grlex_key((2, 1))
    assert grlex_key((2, 1)) < grlex_key((1, 2))


def random_form(num_vars, degree, rng):
    terms = {}
    for expo in monomials(num_vars, degree):
        if rng.random() < 0.6:
            terms[expo] = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
    return RealForm(num_vars, degree, terms)


def test_form_constructors_and_zero():
    z = RealForm.zero(3, 4)
    assert z.is_zero and z.degree == 4 and z.num_vars == 3
    x = RealForm.variable(2, 0)
    y = RealForm.variable(2, 1)
    sq = (x + y) ** 2
    assert sq == x * x + x * y * 2 + y * y
    assert not sq.is_zero
    assert sq.evaluate((Fraction(2), Fraction(3))) == 25


def test_form_rejects_inhomogeneous_terms():
    with pytest.raises(ValueError):
        RealForm(2, 3, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError, match="entries"):
        RealForm(2, 2, {(1, 1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="negative"):
        RealForm.variable(2, 0) ** -1
    # a negative exponent would borrow across the packed keys of `**`
    with pytest.raises(ValueError, match="negative"):
        RealForm(2, 2, {(3, -1): 1})
    with pytest.raises(ValueError, match="negative"):
        RealForm.monomial(2, (-1, 3))


def test_form_and_moment_reject_non_integer_exponents():
    # a float or Fraction exponent passes the degree check, then breaks the
    # packed keys of `**` and the factorials of the moment
    for expo in ((1.5, 0.5), (2.0, 0), (Fraction(1), 1)):
        with pytest.raises(ValueError, match="non-integer"):
            RealForm(2, 2, {expo: 1})
        with pytest.raises(ValueError, match="non-integer"):
            RealForm.monomial(2, expo)
        with pytest.raises(ValueError, match="non-integer"):
            sphere_moment(expo, 2)
    assert sphere_moment((2, 2), 2) == Fraction(1, 8)


def test_form_mixed_arity_rejected():
    x2 = RealForm.variable(2, 0)
    x3 = RealForm.variable(3, 0)
    with pytest.raises(ValueError):
        x2 + x3
    with pytest.raises(ValueError, match="variable count"):
        form_inner(x2, x3)
    with pytest.raises(ValueError, match="coordinates"):
        x2.evaluate((Fraction(1),) * 3)
    with pytest.raises(ValueError, match="does not match"):
        sphere_moment((2, 0), 3)
    with pytest.raises(ValueError, match="sphere dimension"):
        sphere_moment((), 0)
    for beta in ((4, -2), (-1, 3), (2, 2, -2)):
        with pytest.raises(ValueError, match="negative"):
            sphere_moment(beta, len(beta))


def test_pow_matches_repeated_multiplication():
    rng = random.Random(21)
    for _ in range(10):
        f = random_form(2, 2, rng)
        if f.is_zero:
            continue
        assert f ** 3 == f * f * f
        assert f ** 1 == f
    g = random_form(2, 3, rng).scale(0.1)
    assert g ** 1 == g and g ** 2 == g * g


def tuple_product(f, g):
    """f * g on exponent tuples: each key starts from int 0 and adds c1 * c2
    over the pairs (f's term, g's term) in that loop order, and cancelled
    keys are dropped at the end, in order."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(map(operator.add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return RealForm(f.num_vars, f.degree + g.degree, out)


def tree_power(f, k):
    """f ** k by repeated tuple-keyed products in the tree that `**` keeps:
    half * half, then times f for an odd k."""
    if k == 0:
        return RealForm.monomial(f.num_vars, (0,) * f.num_vars)
    if k == 1:
        return f
    half = tree_power(f, k // 2)
    sq = tuple_product(half, half)
    return tuple_product(sq, f) if k % 2 else sq


def signature(form):
    """The shape and terms of a form: keys in order, each coefficient with
    its type, a float as its hex string."""
    return (form.num_vars, form.degree, [(e, c.hex() if isinstance(c, float) else c, type(c))
                                         for e, c in form.terms.items()])


def test_product_matches_tuple_keyed_loop():
    rng = random.Random(29)
    x, y = RealForm.variable(2, 0), RealForm.variable(2, 1)
    ints = RealForm(2, 1, {(1, 0): 2, (0, 1): -3})
    fractions = random_form(3, 2, rng)
    floats = RealForm(3, 2, {e: rng.uniform(-2, 2) for e in monomials(3, 2)})
    mixed = RealForm(3, 1, {(1, 0, 0): 0.7, (0, 1, 0): Fraction(-2, 5), (0, 0, 1): 3})
    pairs = [
        (ints, RealForm(2, 2, {(2, 0): 1, (1, 1): -4, (0, 2): 5})),
        (fractions, random_form(3, 3, rng)),
        (floats, RealForm(3, 3, {e: rng.uniform(-2, 2) for e in monomials(3, 3)})),
        (floats, fractions), (mixed, floats), (mixed, fractions), (ints, x * x - y * y),
        # the x y term of (x + y)(x - y) cancels and is dropped
        (x + y, x - y),
        (RealForm(2, 1, {(1, 0): 0.5, (0, 1): 0.25}), RealForm(2, 1, {(1, 0): 2.0, (0, 1): -4.0})),
        # degree 0: constants of every type, in zero and in three variables
        (RealForm(3, 0, {(0, 0, 0): Fraction(-3, 2)}), mixed),
        (floats, RealForm(3, 0, {(0, 0, 0): 0.3})),
        (RealForm(0, 0, {(): 2}), RealForm(0, 0, {(): 0.5})),
        (RealForm.zero(3, 2), floats),
    ]
    cancelled = 0
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            reference = tuple_product(a, b)
            assert signature(a * b) == signature(reference)
            cancelled += len({tuple(map(operator.add, e1, e2))
                              for e1 in a.terms for e2 in b.terms}) - len(reference.terms)
    assert cancelled > 0


def test_packed_pow_matches_tuple_keyed_products():
    rng = random.Random(22)
    bases = [
        random_form(3, 2, rng),
        RealForm(3, 2, {e: rng.uniform(-2, 2) for e in monomials(3, 2)}),
        RealForm(4, 1, {e: rng.uniform(-1, 1) for e in monomials(4, 1)}),
        # pure cubes reach x^15 at k = 5, the largest digit of 4 bits
        RealForm(2, 3, {(3, 0): 1.5, (1, 2): 0.5, (0, 3): -0.25}),
        RealForm(2, 3, {(3, 0): Fraction(3, 2), (2, 1): -2, (0, 3): Fraction(-1, 7)}),
        # the x^2 y^2 term of the square cancels to zero and is dropped
        RealForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): -2}),
        RealForm(2, 2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): -2.0}),
        RealForm(3, 0, {(0, 0, 0): Fraction(-3, 2)}),
        RealForm(2, 0, {(0, 0): 0.7}),
    ]
    for f in bases:
        for k in range(6):
            power = f ** k
            assert signature(power) == signature(tree_power(f, k))
            assert all(c != 0 for c in power.terms.values())
    assert (2, 2) not in (bases[5] ** 2).terms
    # the symmetric square of exact coefficients keeps the full product's
    # term order and values, cancelled terms included; dense seeded dicts of
    # ints and Fractions in [-2, 2] cancel often
    cancelled = 0
    for num_vars, degree in ((2, 2), (3, 2), (3, 3), (4, 2)):
        for _ in range(8):
            terms = {e: rng.choice((rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 2)))
                     for e in monomials(num_vars, degree)}
            half = _pack({e: c for e, c in terms.items() if c}, num_vars, 2 * degree)
            full = _packed_product(half, half)
            square = _packed_square(half)
            assert list(square) == list(full)
            assert [(c, type(c)) for c in square.values()] == [
                (c, type(c)) for c in full.values()]
            cancelled += len({k1 + k2 for k1 in half for k2 in half}) - len(full)
    assert cancelled > 0
    # float squares keep the full product's summation order: dense float
    # powers stay hex-equal to the tuple-keyed fold
    for num_vars, degree in ((3, 2), (4, 2)):
        f = RealForm(num_vars, degree, {e: rng.uniform(-3, 3) for e in monomials(num_vars, degree)})
        for k in (2, 3, 4):
            assert [(e, c.hex()) for e, c in (f ** k).terms.items()] == [
                (e, c.hex()) for e, c in tree_power(f, k).terms.items()]
    # products, powers and combinations skip re-validation; the public
    # constructor still validates its input
    with pytest.raises(ValueError, match="entries"):
        RealForm(2, 2, {(1, 1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="degree"):
        RealForm(2, 2, {(1, 2): 1.5})


def fold_reference(coeffs, forms):
    """The left fold acc + c * f written out on term dicts: each entry
    starts from Fraction(0) and cancelled entries drop after every step."""
    acc = {}
    for c, f in zip(coeffs, forms):
        if c == 0:
            continue
        for expo, coeff in f.terms.items():
            acc[expo] = acc.get(expo, Fraction(0)) + coeff * c
        acc = {expo: v for expo, v in acc.items() if v != 0}
    return acc


def test_linear_combination_matches_fold_exact():
    rng = random.Random(27)
    for _ in range(10):
        forms = [random_form(3, 3, rng) for _ in range(5)]
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in forms]
        combo = linear_combination(coeffs, forms)
        assert combo.terms == fold_reference(coeffs, forms)
        assert combo.is_exact


def test_linear_combination_float_bits_match_fold():
    rng = random.Random(28)
    for _ in range(10):
        forms = [RealForm(2, 4, {e: rng.uniform(-1e3, 1e3) for e in monomials(2, 4)})
                 for _ in range(6)]
        coeffs = [rng.uniform(0.0, 1.0) for _ in forms[:-1]] + [-1]
        combo = linear_combination(coeffs, forms)
        reference = fold_reference(coeffs, forms)
        assert list(combo.terms) == list(reference)
        for expo, value in reference.items():
            assert combo.terms[expo].hex() == value.hex()


def test_linear_combination_drops_cancelled_terms():
    x = RealForm.variable(2, 0)
    y = RealForm.variable(2, 1)
    f = x * x + x * y
    g = x * y + y * y
    combo = linear_combination((1, -1), (f, g))
    assert combo.terms == {(2, 0): 1, (0, 2): -1}
    assert linear_combination((Fraction(1, 3), Fraction(-1, 3)), (f, f)).is_zero
    assert linear_combination((0, 0), (f, g)) == RealForm.zero(2, 2)
    with pytest.raises(ValueError):
        linear_combination((1, 1), (f, x))


def test_linear_combination_needs_one_coefficient_per_form():
    # unequal lengths are refused, not truncated by zip: (1, 5) with (f,)
    # must not give f, nor (1,) with (f, h) skip h's variable count and degree
    f = RealForm(2, 2, {(2, 0): 1, (1, 1): Fraction(1, 2)})
    h = RealForm(3, 1, {(1, 0, 0): 1})
    for coeffs, forms in (((1, 5), (f,)), ((1,), (f, h)), ((1,), (f, f)), ((), (f,)), ((), ())):
        with pytest.raises(ValueError, match="coefficients for"):
            linear_combination(coeffs, forms)


def test_average_fixes_zero_and_constant_forms():
    for field, m, p in ((Field.R, 2, 4), (Field.C, 2, 2), (Field.H, 1, 4)):
        n = field.real_dimension * m
        assert unit_group_average(RealForm.zero(n, p), field, m) == RealForm.zero(n, p)
        constant = RealForm.monomial(n, (0,) * n, Fraction(3, 2))
        assert unit_group_average(constant, field, m) == constant


def test_form_ring_identities():
    rng = random.Random(22)
    for _ in range(15):
        f = random_form(3, 2, rng)
        g = random_form(3, 2, rng)
        h = random_form(3, 2, rng)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f - f).is_zero
        assert f.scale(Fraction(-2)) == -(f + f)


def test_evaluate_agrees_with_float():
    rng = random.Random(23)
    for _ in range(10):
        f = random_form(3, 4, rng)
        pt = [Fraction(rng.randint(-4, 4), 3) for _ in range(3)]
        exact = f.evaluate(pt)
        approx = f.evaluate([float(c) for c in pt])
        assert isinstance(approx, float)
        assert math.isclose(float(exact), approx, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("num_vars", (1, 2, 3, 4, 8))
def test_sphere_moment_matches_gamma_oracle(num_vars):
    for degree in (2, 4, 6, 8):
        for expo in monomials(num_vars, degree):
            assert sphere_moment(expo, num_vars) == moment_oracle(expo, num_vars)


def test_sphere_moment_odd_exponent_vanishes():
    assert sphere_moment((1, 2), 2) == 0
    assert sphere_moment((3, 0, 1), 3) == 0


def test_sphere_moment_known_values():
    assert sphere_moment((2, 0), 2) == Fraction(1, 2)
    assert sphere_moment((4, 0), 2) == Fraction(3, 8)
    assert sphere_moment((2, 2), 2) == Fraction(1, 8)
    assert sphere_moment((2, 0, 0), 3) == Fraction(1, 3)
    assert sphere_moment((0,), 1) == 1
    assert sphere_moment((2,), 1) == 1
    assert sphere_moment((4,), 1) == 1


def test_sphere_moment_polar_quadrature_n2():
    # midpoint rule on the circle, spacing 2*pi/M
    steps = 1 << 13
    for b1, b2 in combinations_with_replacement(range(4), 2):
        total = 0.0
        for idx in range(steps):
            theta = 2.0 * math.pi * (idx + 0.5) / steps
            total += math.cos(theta) ** (2 * b1) * math.sin(theta) ** (2 * b2)
        assert math.isclose(total / steps,
                            float(sphere_moment((2 * b1, 2 * b2), 2)),
                            rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("num_vars", (2, 3, 4, 8))
def test_moment_multinomial_normalization(num_vars):
    # expanding <x,x>^a over the sphere integrates to 1
    for a in (1, 2, 3, 4):
        total = Fraction(0)
        for halves in monomials(num_vars, a):
            weight = math.factorial(a)
            for h in halves:
                weight //= math.factorial(h)
            total += weight * sphere_moment(tuple(2 * h for h in halves), num_vars)
        assert total == 1


def test_form_inner_symmetric_bilinear():
    rng = random.Random(24)
    for _ in range(10):
        f = random_form(2, 4, rng)
        g = random_form(2, 4, rng)
        h = random_form(2, 4, rng)
        assert form_inner(f, g) == form_inner(g, f)
        assert form_inner(f + h, g) == form_inner(f, g) + form_inner(h, g)
    x4 = RealForm.monomial(2, (4, 0))
    # moment of x^8 on the circle: 7!! / (2*4*6*8)
    assert form_inner(x4, x4) == Fraction(35, 128)


def test_abs_inner_sq_form_matches_pointwise():
    # the degree-2 frame form is |<u, x>|^2 over R, C and H
    rng = random.Random(25)
    for field in (Field.R, Field.C, Field.H):
        d = field.real_dimension
        for _ in range(8):
            u = KVector(field, tuple(
                KElement(field, tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(d)))
                for _ in range(2)))
            if u.is_zero:
                continue
            f = frame_form(u, 2)
            assert f.degree == 2 and f.num_vars == 2 * d
            x = KVector(field, tuple(
                KElement(field, tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(d)))
                for _ in range(2)))
            assert f.evaluate(x.real_coords()) == k_norm_sq(inner_product(u, x))


def test_frame_form_rejects_zero_vector():
    zero = KVector.from_reals(Field.R, [Fraction(0), Fraction(0)])
    for p in (2, 4):
        with pytest.raises(ValueError, match="zero vector"):
            frame_form(zero, p)
    u = KVector.from_reals(Field.R, [Fraction(1), Fraction(0)])
    for p in (3, 0):
        with pytest.raises(ValueError, match="even"):
            frame_form(u, p)
        with pytest.raises(ValueError, match="even"):
            norm_power_form(Field.R, 2, p)


def test_frame_and_norm_forms_refuse_bad_m_and_p():
    # frame_form once raised AttributeError on a float p, and norm_power_form
    # built forms over 0 and -3 variables
    u = KVector.from_reals(Field.R, [Fraction(1), Fraction(0)])
    for p in (4.0, True):
        with pytest.raises(ValueError, match="m and p must be integers"):
            frame_form(u, p)
        with pytest.raises(ValueError, match="m and p must be integers"):
            norm_power_form(Field.R, 2, p)
    for m in (0, -3):
        with pytest.raises(ValueError, match="m must be >= 1"):
            norm_power_form(Field.R, m, 4)


def test_frame_form_power():
    u = KVector.from_reals(Field.R, [Fraction(1), Fraction(-2)])
    f4 = frame_form(u, 4)
    assert f4 == frame_form(u, 2) ** 2
    assert f4.degree == 4
    # (x - 2y)^4 top coefficient
    assert f4.terms[(0, 4)] == 16


def test_exact_frame_form_matches_pointwise_oracle():
    # Mixed denominators make s = lcm(2, 3, 5, ...) > 1, so the integer
    # expansion and its one division by s^p are both exercised.
    rng = random.Random(29)
    values = [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5), Fraction(0), Fraction(-7, 4)]
    for field in (Field.R, Field.C, Field.H):
        d = field.real_dimension
        head = KElement(field, (Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5), Fraction(1))[:d])
        u = KVector(field, (head, KElement(field, tuple(rng.choice(values) for _ in range(d)))))
        floats = KVector(field, tuple(
            KElement(field, tuple(float(c) for c in e.components)) for e in u.entries))
        for p in (4, 6):
            f = frame_form(u, p)
            assert f.degree == p and f.num_vars == 2 * d
            assert f.is_exact and all(type(c) is Fraction for c in f.terms.values())
            for _ in range(4):
                x = KVector(field, tuple(KElement(field, tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d)))
                    for _ in range(2)))
                assert f.evaluate(x.real_coords()) == k_norm_sq(inner_product(u, x)) ** (p // 2)
            g = frame_form(floats, p)
            reference = frame_form(floats, 2) ** (p // 2)
            assert list(g.terms) == list(reference.terms)
            assert [c.hex() for c in g.terms.values()] == [c.hex() for c in reference.terms.values()]


def test_float_frame_form_of_dyadic_vector_is_exact_form():
    # Dyadic entries keep every float product exact, so the float expansion
    # must agree with the exact one coefficient for coefficient.
    for field in (Field.R, Field.C, Field.H):
        d = field.real_dimension
        comps = [(Fraction(1, 2), Fraction(-5, 4), Fraction(3), Fraction(-1, 8))[(i + j) % 4]
                 for i in range(2) for j in range(d)]
        u = KVector(field, tuple(KElement(field, tuple(comps[i * d:(i + 1) * d]))
                                 for i in range(2)))
        floats = KVector(field, tuple(KElement(field, tuple(float(c) for c in e.components))
                                      for e in u.entries))
        for p in (4, 6):
            exact, approx = frame_form(u, p), frame_form(floats, p)
            assert not approx.is_exact
            assert list(approx.terms) == list(exact.terms)
            assert all(Fraction(approx.terms[e]) == c for e, c in exact.terms.items())


def test_int_forms_stay_int():
    f = RealForm(2, 1, {(1, 0): 2, (0, 1): -3})
    g = RealForm(2, 1, {(1, 0): 1, (0, 1): 5})
    assert (f * g).terms == {(2, 0): 2, (1, 1): 7, (0, 2): -15}
    for form in (f * g, f ** 3, linear_combination((2, -1), (f, g)), f - g, 3 * f):
        assert form.terms and all(type(c) is int for c in form.terms.values())
        assert form.is_exact
    # the real part of x_1 alpha over H^2, in the 4 + 8 joint variables
    # (alpha, x): alpha_0 x_0 - alpha_1 x_1 - alpha_2 x_2 - alpha_3 x_3
    joint = RealForm(12, 2, {(1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0): 1,
                             (0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0): -1,
                             (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0): -1,
                             (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0): -1})
    square = joint ** 2
    assert square.terms and all(type(c) is int for c in square.terms.values())


def test_norm_power_form_multinomial():
    for field, m, p in ((Field.R, 2, 4), (Field.C, 2, 2), (Field.H, 2, 2)):
        g = norm_power_form(field, m, p)
        n = m * field.real_dimension
        assert g.num_vars == n and g.degree == p
        pt = [Fraction(1) for _ in range(n)]
        assert g.evaluate(pt) == Fraction(n) ** (p // 2)


def test_form_inner_rejects_float_forms():
    # the sphere pairing is exact only; float forms have no pairing to fall back on
    frame = catalog(Field.R, 2, 6, "real2-equiangular")
    eq = tuple(frame_form(u, frame.p) for u in frame.vectors)
    exact = norm_power_form(Field.R, 2, 6)
    for a, b in ((eq[0], eq[1]), (eq[2], exact), (exact, eq[2]), (eq[0], RealForm.zero(2, 6))):
        with pytest.raises(ValueError, match="exact"):
            form_inner(a, b)


def test_exact_form_inner_matches_term_pairs():
    # exact forms pair in ints over one denominator; the result is the
    # Fraction sum over every term pair, also for int coefficients
    rng = random.Random(25)
    for num_vars, degree in ((2, 4), (3, 2), (4, 3)):
        for _ in range(5):
            f, g = random_form(num_vars, degree, rng), random_form(num_vars, degree, rng)
            g = RealForm(num_vars, degree, {e: int(c * 6) for e, c in g.terms.items()})
            expected = sum((c1 * c2 * sphere_moment(tuple(map(sum, zip(e1, e2))), num_vars)
                            for e1, c1 in f.terms.items() for e2, c2 in g.terms.items()),
                           Fraction(0))
            value = form_inner(f, g)
            assert value == expected and type(value) is Fraction
    assert form_inner(RealForm.zero(2, 2), RealForm.monomial(2, (2, 0))) == 0


def test_unpack_with_a_denominator_divides_each_term_in_order():
    # _unpack(packed, n, d, den) is the plain unpack with each int c read as
    # Fraction(c, den), term for term and in order, for keys packed for the
    # form's degree or for twice it (as the unit-group averages are)
    rng = random.Random(47)
    for num_vars, degree in [(1, 2), (2, 4), (3, 6), (4, 3), (6, 8)]:
        expos = monomials(num_vars, degree)
        for _ in range(6):
            chosen = rng.sample(expos, min(len(expos), rng.randint(1, 12)))
            terms = {e: rng.choice([-1, 1]) * rng.randint(1, 10**30) for e in chosen}
            key_degree = rng.choice([degree, 2 * degree])
            packed = _pack(terms, num_vars, key_degree)
            den = rng.choice([1, 7, rng.randint(2, 10**20)])
            plain = _unpack(packed, num_vars, key_degree)
            divided = _unpack(packed, num_vars, key_degree, den)
            assert list(plain.items()) == list(terms.items())
            assert list(divided.items()) == [(e, Fraction(c, den)) for e, c in plain.items()]
            assert all(type(c) is Fraction for c in divided.values())
