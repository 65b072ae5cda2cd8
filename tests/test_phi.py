"""Unit-group averaging, invariant dimensions, and dual bases."""

import math
import random
from fractions import Fraction

import pytest

from isoframe.forms import RealForm, form_inner, monomials, norm_power_form
from isoframe.kscalar import Field, KElement, KVector, rational_unit_scalars
from isoframe.phi import (
    SingularGramError,
    dim_phi,
    dual_basis,
    phi_basis,
    unit_group_average,
    upper_bound,
)

FIELDS = (Field.R, Field.C, Field.H)


def dim_oracle(field, m, p):
    """Closed forms: all real forms for R (p even); bidegree (p/2, p/2)
    count for C; m = 1 collapses to the norm power for every K."""
    if m == 1:
        return 1
    n = m * field.real_dimension
    if field is Field.R:
        return math.comb(n + p - 1, p)
    if field is Field.C:
        return math.comb(m + p // 2 - 1, p // 2) ** 2
    raise NotImplementedError


def gauge_coords(x, s):
    return x.scale_right(s).real_coords()


@pytest.mark.parametrize("field", FIELDS)
def test_average_is_idempotent(field):
    m = 2
    n = m * field.real_dimension
    rng = random.Random(41)
    picks = monomials(n, 2)
    rng.shuffle(picks)
    for expo in picks[:4]:
        f = RealForm.monomial(n, expo)
        avg = unit_group_average(f, field, m)
        assert unit_group_average(avg, field, m) == avg


@pytest.mark.parametrize("field", FIELDS)
def test_average_output_is_invariant(field):
    m = 2
    n = m * field.real_dimension
    rng = random.Random(42)
    scalars = rational_unit_scalars(field, 10, seed=42)
    for expo in monomials(n, 2)[:6]:
        avg = unit_group_average(RealForm.monomial(n, expo), field, m)
        for s in scalars:
            x = KVector(field, tuple(
                KElement(field, tuple(Fraction(rng.randint(-3, 3), 2)
                                      for _ in range(field.real_dimension)))
                for _ in range(m)))
            assert avg.evaluate(gauge_coords(x, s)) == avg.evaluate(x.real_coords())


@pytest.mark.parametrize("field", FIELDS)
def test_average_fixes_invariant_forms(field):
    g = norm_power_form(field, 2, 4)
    assert unit_group_average(g, field, 2) == g


def test_average_kills_odd_degree_over_r():
    f = RealForm.variable(2, 0)
    assert unit_group_average(f, Field.R, 2).is_zero


def test_average_complex_square():
    # real-part square of a single complex coordinate averages to |xi|^2 / 2
    f = RealForm.monomial(2, (2, 0))
    avg = unit_group_average(f, Field.C, 1)
    expected = (RealForm.monomial(2, (2, 0)) + RealForm.monomial(2, (0, 2))).scale(Fraction(1, 2))
    assert avg == expected


def test_average_linear():
    f = RealForm.monomial(4, (2, 0, 0, 0))
    g = RealForm.monomial(4, (0, 1, 1, 0))
    left = unit_group_average(f + g.scale(Fraction(3)), Field.C, 2)
    right = unit_group_average(f, Field.C, 2) + unit_group_average(g, Field.C, 2).scale(Fraction(3))
    assert left == right


@pytest.mark.parametrize("field,m,p", [
    (Field.R, 2, 2), (Field.R, 2, 4), (Field.R, 3, 4),
    (Field.C, 2, 2), (Field.C, 2, 4), (Field.C, 3, 2),
    (Field.R, 1, 2), (Field.R, 1, 4), (Field.R, 1, 6),
    (Field.C, 1, 2), (Field.C, 1, 4), (Field.C, 1, 6),
])
def test_dim_matches_closed_form(field, m, p):
    assert dim_phi(field, m, p) == dim_oracle(field, m, p)


def test_dim_quaternionic_quadratics():
    # invariant quadratics: the m norms plus one full quaternion per pair
    assert dim_phi(Field.H, 2, 2) == 2 + 4 * 1
    assert dim_phi(Field.H, 3, 2) == 3 + 4 * 3
    assert dim_phi(Field.H, 1, 2) == 1
    assert dim_phi(Field.H, 1, 4) == 1


def test_phi_basis_contents():
    basis = phi_basis(Field.R, 2, 4)
    assert basis.dimension == 5
    assert len(basis.labels) == 5
    assert all(f.degree == 4 and f.num_vars == 2 for f in basis.basis)
    assert all(f.is_exact for f in basis.basis)
    norm_sq = norm_power_form(Field.R, 2, 4)
    # the invariant space over R at m=2, p=4 is every quartic
    assert dim_phi(Field.R, 2, 4) == len(monomials(2, 4))
    assert any(form_inner(norm_sq, f) != 0 for f in basis.basis)


# phi_basis labels recorded with the earlier dense-row elimination, each
# exponent vector written as its digits.  The independent averages are the
# same whatever pivot columns an exact elimination picks, so the labels are
# too.
RECORDED_LABELS = {
    (Field.R, 1, 2): "2",
    (Field.R, 1, 4): "4",
    (Field.R, 1, 6): "6",
    (Field.R, 2, 2): "20 11 02",
    (Field.R, 2, 4): "40 31 22 13 04",
    (Field.R, 2, 6): "60 51 42 33 24 15 06",
    (Field.R, 3, 2): "200 110 101 020 011 002",
    (Field.R, 3, 4): "400 310 301 220 211 202 130 121 112 103 040 031 022 013 004",
    (Field.R, 3, 6): "600 510 501 420 411 402 330 321 312 303 240 231 222 213 204 150 141 "
                     "132 123 114 105 060 051 042 033 024 015 006",
    (Field.C, 1, 2): "20",
    (Field.C, 1, 4): "40",
    (Field.C, 2, 2): "2000 1010 1001 0020",
    (Field.C, 2, 4): "4000 3010 3001 2020 2011 2002 1030 1021 0040",
    (Field.C, 3, 2): "200000 101000 100100 100010 100001 002000 001010 001001 000020",
    (Field.C, 3, 4): "400000 301000 300100 300010 300001 202000 201100 201010 201001 200200 "
                     "200110 200101 200020 200011 200002 103000 102100 102010 102001 101110 "
                     "101101 101020 101011 101002 100120 100030 100021 004000 003010 003001 "
                     "002020 002011 002002 001030 001021 000040",
    (Field.H, 2, 2): "20000000 10001000 10000100 10000010 10000001 00002000",
    (Field.H, 2, 4): "40000000 30001000 30000100 30000010 30000001 20002000 20001100 "
                     "20001010 20001001 20000200 20000110 20000101 20000020 20000011 "
                     "20000002 10003000 10002100 10002010 10002001 00004000",
}


@pytest.mark.parametrize("field,m,p", list(RECORDED_LABELS))
def test_phi_basis_labels_recorded(field, m, p):
    labels = phi_basis(field, m, p).labels
    assert " ".join("".join(map(str, label)) for label in labels) == RECORDED_LABELS[field, m, p]


def test_phi_basis_invariance_witnesses():
    basis = phi_basis(Field.C, 2, 2)
    scalars = rational_unit_scalars(Field.C, 20, seed=43)
    rng = random.Random(44)
    for f in basis.basis:
        for s in scalars[:5]:
            x = KVector(Field.C, tuple(
                KElement(Field.C, (Fraction(rng.randint(-3, 3), 2),
                                   Fraction(rng.randint(-3, 3), 2)))
                for _ in range(2)))
            assert f.evaluate(gauge_coords(x, s)) == f.evaluate(x.real_coords())


def test_upper_bound_values():
    assert upper_bound(Field.R, 2, 4) == 4
    assert upper_bound(Field.C, 2, 4) == 8
    assert upper_bound(Field.R, 3, 4) == 14
    with pytest.raises(ValueError):
        upper_bound(Field.R, 1, 4)


def test_dual_basis_kronecker_pairing():
    for field, m, p in ((Field.R, 2, 4), (Field.C, 2, 2)):
        basis = phi_basis(field, m, p)
        duals = basis.duals
        assert len(duals) == basis.dimension
        for j, b in enumerate(basis.basis):
            for k, theta in enumerate(duals):
                assert form_inner(b, theta) == (1 if j == k else 0)


def test_gram_inverse_round_trip():
    basis = phi_basis(Field.C, 2, 2)
    db = dual_basis(basis.basis)
    g = db.gram
    gi = db.gram_inverse
    dim = basis.dimension
    for i in range(dim):
        assert g[i][i] > 0
        for j in range(dim):
            assert g[i][j] == g[j][i]
            acc = sum(g[i][k] * gi[k][j] for k in range(dim))
            assert acc == (1 if i == j else 0)


def test_dual_basis_rejects_dependent_forms():
    f = RealForm.monomial(2, (4, 0))
    with pytest.raises(SingularGramError):
        dual_basis([f, f])


def test_dual_basis_free_functions():
    f = RealForm.monomial(2, (4, 0))
    g = RealForm.monomial(2, (0, 4))
    db = dual_basis([f, g])
    assert form_inner(f, db.duals[0]) == 1
    assert form_inner(f, db.duals[1]) == 0
