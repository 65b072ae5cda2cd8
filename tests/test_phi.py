"""Unit-group averaging, invariant dimensions, and dual bases."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from isoframe import phi
from isoframe.cli import EXIT_PASS, entry
from isoframe.forms import (
    RealForm,
    form_inner,
    frame_form,
    linear_combination,
    monomials,
    norm_power_form,
    sphere_moment,
)
from isoframe.frames import WeightedFrame, catalog, save_frame
from isoframe.kscalar import (
    Field,
    KElement,
    KVector,
    inner_product,
    k_mul,
    k_norm_sq,
    rational_unit_scalars,
)
from isoframe.linalg import RowReducer
from isoframe.phi import (
    SingularGramError,
    dim_phi,
    dual_basis,
    phi_basis,
    unit_group_average,
    upper_bound,
)

from conftest import design_h2_p4

FIELDS = (Field.R, Field.C, Field.H)


def dim_oracle(field, m, p):
    """Independent counts: all real forms for R (p even); bidegree
    (p/2, p/2) count for C; for H the hook-content formula for the GL(2m)
    representation of shape (p/2, p/2); m = 1 collapses to the norm power
    for every K."""
    if m == 1:
        return 1
    n = m * field.real_dimension
    if field is Field.R:
        return math.comb(n + p - 1, p)
    k = p // 2
    if field is Field.C:
        return math.comb(m + k - 1, k) ** 2
    # cell (row, col) of the two-row shape has content col - row and hook
    # length (k - col) + (1 - row)
    count = Fraction(1)
    for row in (0, 1):
        for col in range(k):
            count *= Fraction(2 * m + col - row, k - col + 1 - row)
    assert count.denominator == 1
    return int(count)


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
    # the form must live in the 2m real coordinates of C^m
    with pytest.raises(ValueError, match="variables"):
        unit_group_average(f, Field.C, 2)


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
    (Field.H, 1, 2), (Field.H, 1, 4), (Field.H, 2, 2), (Field.H, 2, 4),
    (Field.H, 3, 2), (Field.H, 4, 2),
])
def test_dim_matches_closed_form(field, m, p):
    # the closed form and the computed basis both answer the oracle
    expected = dim_oracle(field, m, p)
    assert dim_phi(field, m, p) == expected
    assert phi_basis(field, m, p).dimension == expected


def test_phi_basis_rank_guard(monkeypatch):
    monkeypatch.setattr(phi, "dim_phi", lambda field, m, p: 4)
    with pytest.raises(RuntimeError, match="indicates a defect"):
        phi_basis.__wrapped__(Field.R, 2, 2)


@pytest.mark.parametrize("field", [Field.C, Field.H])
def test_phi_basis_rank_guard_on_the_averaging_path(monkeypatch, field):
    # C and H average and eliminate; a rank other than dim Phi still raises
    monkeypatch.setattr(phi, "dim_phi", lambda field, m, p: 100)
    with pytest.raises(RuntimeError, match="indicates a defect"):
        phi_basis.__wrapped__(field, 2, 2)


@pytest.mark.parametrize("m, p", [(2, 4), (3, 6), (4, 6), (2, 8)])
def test_real_phi_basis_is_closed_form(monkeypatch, m, p):
    # {+-1} fixes every even-degree form: the basis is the monomials, with no
    # averager built and no elimination row added
    averages = [unit_group_average(RealForm.monomial(m, beta), Field.R, m)
                for beta in monomials(m, p)]
    added = []
    add_row = RowReducer.add_row
    with monkeypatch.context() as patch:
        def no_averager(*args):
            raise AssertionError("the real basis built an averager")

        def counted(self, *args, **kwargs):
            added.append(1)
            return add_row(self, *args, **kwargs)

        patch.setattr(phi, "_averager", no_averager)
        patch.setattr(RowReducer, "add_row", counted)
        basis = phi_basis.__wrapped__(Field.R, m, p)
    assert added == []
    assert basis.labels == tuple(monomials(m, p))
    assert basis.basis == tuple(averages)
    assert all(type(c) is Fraction for f in basis.basis for c in f.terms.values())


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
    # phi_basis is cached and shared by every caller, so it cannot be edited
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.basis = basis.basis[:2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        dual_basis(basis.basis).duals = ()
    assert dim_phi(Field.R, 2, 4) == 5
    assert upper_bound(Field.R, 2, 4) == 4


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


@pytest.mark.parametrize("call", [dim_phi, upper_bound, phi_basis])
@pytest.mark.parametrize("m, p", [(2, 4.0), (2.0, 4), (2, True), (True, 2)])
def test_dimension_entry_points_refuse_non_int_m_and_p(call, m, p):
    # a float p once reached math.comb and raised TypeError; phi_basis must
    # refuse it even when the cache holds the int key it equals
    phi_basis(Field.R, 2, 4)
    with pytest.raises(ValueError, match="m and p must be integers"):
        call(Field.R, m, p)


def test_dual_basis_kronecker_pairing():
    for field, m, p in ((Field.R, 2, 4), (Field.C, 2, 2), (Field.H, 2, 4), (Field.C, 3, 4),
                        (Field.R, 4, 6)):
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
    with pytest.raises(ValueError, match="empty"):
        dual_basis([])
    with pytest.raises(ValueError, match="equal degree"):
        dual_basis([f, RealForm.monomial(2, (2, 0))])
    with pytest.raises(ValueError, match="equal degree"):
        dual_basis([f, RealForm.monomial(3, (4, 0, 0))])


def test_dual_basis_rejects_float_forms():
    # the Gram is summed in ints; float forms have no exact pairing
    frame = catalog(Field.R, 2, 6, "real2-equiangular")
    forms = tuple(frame_form(u, frame.p) for u in frame.vectors)
    with pytest.raises(ValueError, match="exact"):
        dual_basis(forms)
    with pytest.raises(ValueError, match="exact"):
        dual_basis([forms[0], phi_basis(Field.R, 2, 6).basis[0]])


def test_dual_basis_free_functions():
    f = RealForm.monomial(2, (4, 0))
    g = RealForm.monomial(2, (0, 4))
    db = dual_basis([f, g])
    assert form_inner(f, db.duals[0]) == 1
    assert form_inner(f, db.duals[1]) == 0


def parity_class_forms(seed):
    """Seeded random exact quartics in 4 variables, each on one or two of
    the parity classes A..E of its exponents: classes A and C share the
    forms drawn on "AC", D and E those on "DE", so the Gram matrix has the
    three blocks {A, C}, {B} and {D, E}."""
    rng = random.Random(seed)
    by_class = {}
    for expo in monomials(4, 4):
        by_class.setdefault(tuple(x % 2 for x in expo), []).append(expo)
    classes = dict(zip("ABCDE", sorted(by_class, key=lambda c: -len(by_class[c]))))
    forms = []
    for pattern in ("A", "B", "AC", "D", "A", "DE", "B", "C", "AC", "E", "D"):
        terms = {}
        for tag in pattern:
            for expo in rng.sample(by_class[classes[tag]], 2):
                terms[expo] = Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 4))
        forms.append(RealForm(4, 4, terms))
    return forms


def reference_inverse(matrix):
    """Row i of the inverse of a nonsingular matrix: the certificate of the
    unit row e_i added after the matrix rows to a RowReducer."""
    reducer = RowReducer()
    assert all(reducer.add_row(dict(enumerate(row))) is None for row in matrix)
    certs = [reducer.add_row({i: 1}) for i in range(len(matrix))]
    return [[cert.get(j, Fraction(0)) for j in range(len(matrix))] for cert in certs]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_basis_matches_dense_fraction_reference(seed):
    # forms that are no Phi basis, over several parity classes with blocks
    # merged through shared classes: the Gram, its inverse and every dual
    # term, in order, equal those of the dense Fraction computation
    forms = parity_class_forms(seed)
    assert len(phi._parity_blocks([phi._parity_buckets(phi._scaled_terms(f)[1])
                                   for f in forms])) == 3
    gram = [[form_inner(fi, fj) for fj in forms] for fi in forms]
    inverse = reference_inverse(gram)
    n = len(forms)
    assert all(sum(gram[i][k] * inverse[k][j] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))
    db = dual_basis(forms)
    assert db.gram == tuple(map(tuple, gram))
    assert db.gram_inverse == tuple(map(tuple, inverse))
    assert all(type(x) is Fraction for row in db.gram + db.gram_inverse for x in row)
    for theta, row in zip(db.duals, inverse):
        assert list(theta.terms.items()) == list(linear_combination(row, forms).terms.items())
        assert all(type(c) is Fraction for c in theta.terms.values())
    for j, b in enumerate(forms):
        assert [form_inner(b, theta) for theta in db.duals] == [int(j == k)
                                                                for k in range(len(forms))]


def test_dual_basis_builds_gram_on_first_read():
    # the duals need no Fraction Gram: G and G^-1 are built when first
    # read, then kept, and equal the dense Fraction reference
    forms = parity_class_forms(1)
    db = dual_basis(forms)
    assert "gram" not in vars(db) and "gram_inverse" not in vars(db)
    assert [f.name for f in dataclasses.fields(db) if not f.name.startswith("_")] == [
        "forms", "duals"]
    gram = [[form_inner(fi, fj) for fj in forms] for fi in forms]
    assert db.gram_inverse == tuple(map(tuple, reference_inverse(gram)))
    assert "gram" not in vars(db) and "gram_inverse" in vars(db)
    assert db.gram == tuple(map(tuple, gram))
    assert db.gram is db.gram and db.gram_inverse is db.gram_inverse


def test_dual_basis_rejects_dependence_within_one_block():
    forms = parity_class_forms(0)
    # forms 2 and 8 both lie on classes A and C
    dependent = linear_combination((Fraction(2, 3), -3), (forms[2], forms[8]))
    with pytest.raises(SingularGramError):
        dual_basis(forms + [dependent])
    with pytest.raises(SingularGramError):
        dual_basis([forms[0], forms[1], forms[0].scale(Fraction(-7, 2))])


def test_counting_builds_no_basis(capsys, tmp_path):
    # dim_phi and upper_bound are closed forms, so neither they nor the
    # `dim` and `verify` commands ever fill the phi_basis cache
    phi_basis.cache_clear()
    assert dim_phi(Field.H, 2, 2) == 6
    assert upper_bound(Field.C, 2, 4) == 8
    assert phi_basis.cache_info().currsize == 0
    assert dim_phi(Field.H, 2, 6) == 50
    assert dim_phi(Field.H, 3, 6) == 490
    assert upper_bound(Field.H, 3, 4) == 104

    assert entry(["dim", "H", "3", "6", "--output", "json"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert '"dim": 490' in out and '"bound": 489' in out

    path = tmp_path / "h2-design-p4.json"
    save_frame(design_h2_p4(), path)
    assert entry(["verify", str(path), "--output", "json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass" and payload["dim"] == 20
    assert phi_basis.cache_info().currsize == 0


DUAL_KEYS = [(Field.R, 4, 6), (Field.C, 2, 8), (Field.C, 3, 4), (Field.R, 3, 6),
             (Field.H, 3, 2), (Field.C, 5, 2), (Field.R, 3, 4), (Field.C, 3, 2),
             (Field.R, 2, 8), (Field.R, 2, 4), (Field.C, 2, 2), (Field.H, 2, 2)]


def reference_inner(f1, f2):
    """The sphere pairing term pair by term pair, in Fractions."""
    return sum((c1 * c2 * sphere_moment(tuple(a + b for a, b in zip(e1, e2)), f1.num_vars)
                for e1, c1 in f1.terms.items() for e2, c2 in f2.terms.items()), Fraction(0))


@pytest.mark.parametrize("field, m, p", DUAL_KEYS)
def test_dual_basis_gram_is_pairwise_form_inner(field, m, p):
    basis = phi_basis(field, m, p).basis
    gram = dual_basis(basis).gram
    assert gram == tuple(tuple(form_inner(fi, fj) for fj in basis) for fi in basis)
    assert all(type(g) is Fraction for row in gram for g in row)
    if len(basis) <= 10:
        assert gram == tuple(tuple(reference_inner(fi, fj) for fj in basis) for fi in basis)


def substitution_table(field, m):
    """x -> x alpha on the d*m real coordinates of x, as bilinear forms in the
    joint variables (alpha_1..alpha_d, x_1..x_{d*m}), read off k_mul on the
    d unit scalars: e_c e_s = sum_t sign_t e_t puts sign_t alpha_s x_{i,c}
    into coordinate (i, t)."""
    d = field.real_dimension
    units = [KElement(field, tuple(int(a == b) for b in range(d))) for a in range(d)]
    table = [{} for _ in range(d * m)]
    for i in range(m):
        for c in range(d):
            for s in range(d):
                for t, sign in enumerate(k_mul(units[c], units[s]).components):
                    if sign:
                        expo = [0] * (d + d * m)
                        expo[s] = expo[d + i * d + c] = 1
                        table[i * d + t][tuple(expo)] = sign
    return [RealForm(d + d * m, 2, terms) for terms in table]


def reference_average(beta, table, d):
    """Average of x^beta with a Fraction sphere moment per joint term."""
    joint = math.prod((table[v] ** b for v, b in enumerate(beta) if b),
                      start=RealForm.monomial(table[0].num_vars, (0,) * table[0].num_vars))
    out = {}
    for expo, coeff in joint.terms.items():
        out[expo[d:]] = out.get(expo[d:], 0) + coeff * sphere_moment(expo[:d], d)
    return RealForm(joint.num_vars - d, sum(beta), out)


@pytest.mark.parametrize("field, m, p", [(Field.R, 3, 4), (Field.C, 2, 4), (Field.C, 3, 2),
                                         (Field.H, 2, 2), (Field.H, 1, 4)])
def test_average_monomial_matches_sphere_moment_reference(field, m, p):
    d = field.real_dimension
    table = substitution_table(field, m)
    average, den = phi._averager(field, m, p)
    assert den == phi._moment_denominator(d, p)
    for beta in monomials(d * m, p):
        averaged = RealForm._build(d * m, p, phi._unpack(average(beta), d * m, 2 * p, den))
        assert averaged == reference_average(beta, table, d)
        assert all(type(c) is Fraction for c in averaged.terms.values())


@pytest.mark.parametrize("field, m, p", DUAL_KEYS + [(Field.H, 2, 4), (Field.C, 2, 6)])
def test_dual_basis_label_pairing_matches_form_pairing(field, m, p):
    # PhiBasis.duals pairs each label monomial x^beta_a with the forms, since
    # <<A x^beta, g>> = <<x^beta, g>> on Phi; it must give what pairing two
    # whole forms gives, term by term and in order
    basis = phi_basis(field, m, p)
    by_forms = dual_basis(basis.basis)
    by_labels = dual_basis(basis.basis, _labels=basis.labels)
    assert [list(t.terms.items()) for t in by_labels.duals] == \
        [list(t.terms.items()) for t in by_forms.duals]
    assert by_labels.gram == by_forms.gram
    assert by_labels.gram_inverse == by_forms.gram_inverse
    assert basis.duals == by_forms.duals


@pytest.mark.parametrize("field, m, p", [(Field.R, 3, 4), (Field.C, 2, 4), (Field.C, 3, 2),
                                         (Field.H, 2, 2), (Field.H, 2, 4)])
def test_average_is_the_orthogonal_projection(field, m, p):
    # the identity the label pairing rests on: <<A x^beta, b>> = <<x^beta, b>>
    # for every b in Phi, on seeded monomials beta
    n = field.real_dimension * m
    basis = phi_basis(field, m, p).basis
    rng = random.Random(17)
    for beta in rng.sample(monomials(n, p), 6):
        x_beta = RealForm.monomial(n, beta)
        averaged = unit_group_average(x_beta, field, m)
        for b in rng.sample(basis, min(4, len(basis))):
            assert form_inner(averaged, b) == form_inner(x_beta, b)


@pytest.mark.parametrize("field, m", [(Field.C, 2), (Field.C, 3), (Field.H, 2), (Field.H, 3)])
def test_invariant_values_match_kscalar_products(field, m):
    # independent oracle: each row of _invariant_values is |<v, x>|^2 at
    # the points, with <v, x> built by kscalar's own multiplication, first
    # for v = e_i, then for v = e_i + e_j eps_c (i < j, c < d) in that order
    d = field.real_dimension
    rng = random.Random(46)
    points = [tuple(rng.randint(-9, 9) for _ in range(d * m)) for _ in range(7)]
    units = [KElement(field, tuple(int(t == c) for t in range(d))) for c in range(d)]
    directions = [KVector.canonical(field, m, i) for i in range(m)]
    directions += [KVector.canonical(field, m, i) + KVector.canonical(field, m, j).scale_right(eps)
                   for i in range(m) for j in range(i + 1, m) for eps in units]
    rows = list(phi._invariant_values(field, m, points))
    assert len(rows) == m + math.comb(m, 2) * d
    for v, row in zip(directions, rows):
        expected = []
        for x in points:
            xk = KVector(field, tuple(KElement(field, x[i * d:i * d + d]) for i in range(m)))
            expected.append(k_norm_sq(inner_product(v, xk)))
        assert all(type(value) is int for value in row) and row == expected
