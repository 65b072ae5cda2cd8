"""Scaling coefficients and the diagonal-pushforward reduction."""

import math
import random
import types
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import isoframe.frames
from isoframe.forms import RealForm, evaluate, form_inner, frame_form
from isoframe.frames import (
    BudgetExhaustedError,
    DependentFormsError,
    FrameError,
    ScalingExpansionError,
    ScalingForms,
    UnverifiedFrameError,
    WeightedFrame,
    catalog,
    scaling_coefficients,
    scaling_reduce,
    verify,
)
from isoframe.kscalar import Field, KVector, k_mul, rational_unit_scalars
from isoframe.linalg import RowReducer
from isoframe.forms import monomials
from isoframe.phi import dual_basis

from conftest import (
    SYNTHETIC_WEIGHTS,
    build_rescaled_synthetic_frame,
    build_synthetic_frame,
    design_h2_p4,
    mub_c2_p4,
)


def rvec(*coords):
    return KVector.from_reals(Field.R, [Fraction(c) for c in coords])


def weighted_norm_form(m, p, lam):
    """(sum_i lam_i |xi_i|^2)^(p/2) over R at a fixed rational lambda."""
    acc = RealForm.zero(m, 2)
    for i in range(m):
        e = KVector.canonical(Field.R, m, i)
        acc = acc + frame_form(e, 2).scale(lam[i])
    return acc ** (p // 2)


def test_synthetic_weights_solve_exactly(synthetic_frame):
    # re-derive the frozen weights: expand (x^2+y^2)^2 in the five forms,
    # read off the certificate of the target row after the five form rows
    forms = [frame_form(v, 4) for v in synthetic_frame.vectors]
    target = weighted_norm_form(2, 4, (Fraction(1), Fraction(1)))
    reducer = RowReducer()
    for form in forms:
        assert reducer.add_row(form.terms) is None
    cert = reducer.add_row(target.terms)
    weights = [cert[k] for k in range(5)]
    assert tuple(weights) == SYNTHETIC_WEIGHTS
    assert all(w > 0 for w in weights)
    assert verify(synthetic_frame).passed


def test_scaling_coefficients_catalog_closed_form():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    sf = scaling_coefficients(f)
    lam1 = RealForm.variable(2, 0)
    lam2 = RealForm.variable(2, 1)
    cross = lam1 * lam2
    assert sf.coefficients[0] == lam1 * lam1 - cross.scale(Fraction(1, 3))
    assert sf.coefficients[1] == lam2 * lam2 - cross.scale(Fraction(1, 3))
    assert sf.coefficients[2] == cross.scale(Fraction(1, 6))
    assert sf.coefficients[3] == cross.scale(Fraction(1, 6))


def phase_twisted_orthonormal(field, m, seed):
    """The orthonormal p = 2 frame with each basis vector times a unit scalar."""
    base = catalog(field, m, 2, "orthonormal-p2")
    alphas = rational_unit_scalars(field, m, seed=seed)
    vectors = tuple(KVector(field, tuple(k_mul(e, a) for e in u.entries))
                    for u, a in zip(base.vectors, alphas))
    return WeightedFrame(field, m, 2, vectors, base.weights)


def dual_route_coefficients(frame):
    """a_k(lambda) = sum_nu lambda^nu <<C_nu, theta_k>> with theta_k the dual
    basis of the frame forms under the sphere pairing, and
    C_nu = multinomial(p/2; nu) prod_i |xi_i|^(2 nu_i) the slices of
    (sum_i lambda_i |xi_i|^2)^(p/2)."""
    m, half = frame.m, frame.p // 2
    duals = dual_basis(tuple(frame_form(u, frame.p) for u in frame.vectors)).duals
    norms = [frame_form(KVector.canonical(frame.field, m, i), 2) for i in range(m)]
    slices = {}
    for nu in monomials(m, half):
        c_nu = norms[0] ** nu[0]
        for norm, e in zip(norms[1:], nu[1:]):
            c_nu = c_nu * norm ** e
        weight = math.factorial(half)
        for e in nu:
            weight //= math.factorial(e)
        slices[nu] = c_nu.scale(weight)
    return tuple(RealForm(m, half, {nu: form_inner(c_nu, theta)
                                    for nu, c_nu in slices.items()})
                 for theta in duals)


def test_scaling_coefficients_match_dual_basis_route(synthetic_frame):
    for frame in (synthetic_frame,
                  catalog(Field.R, 2, 4, "real2-rational-p4"),
                  phase_twisted_orthonormal(Field.C, 3, seed=1),
                  phase_twisted_orthonormal(Field.H, 2, seed=2)):
        assert verify(frame).passed
        assert scaling_coefficients(frame).coefficients == dual_route_coefficients(frame)


def test_scaling_coefficients_at_ones_give_weights(synthetic_frame):
    for frame in (catalog(Field.R, 2, 4, "real2-rational-p4"),
                  synthetic_frame,
                  catalog(Field.C, 2, 2, "orthonormal-p2"),
                  catalog(Field.H, 3, 2, "orthonormal-p2")):
        sf = scaling_coefficients(frame)
        ones = (Fraction(1),) * frame.m
        assert tuple(sf.evaluate(ones)) == frame.weights
        assert sf.a_hat(ones) == min(frame.weights)


def test_scaling_coefficients_homogeneous(synthetic_frame):
    sf = scaling_coefficients(synthetic_frame)
    lam = (Fraction(2, 3), Fraction(7, 5))
    scaled = tuple(Fraction(4) * v for v in lam)
    left = sf.evaluate(scaled)
    right = [Fraction(16) * v for v in sf.evaluate(lam)]
    assert list(left) == right
    for a in sf.coefficients:
        assert a.degree == 2 and a.num_vars == 2


def test_scaling_expansion_identity_at_sample_points(synthetic_frame):
    lams = [(Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(5, 2)),
            (Fraction(7, 4), Fraction(2, 9))]
    for frame in (synthetic_frame, catalog(Field.R, 2, 4, "real2-rational-p4")):
        sf = scaling_coefficients(frame)
        forms = [frame_form(v, frame.p) for v in frame.vectors]
        for lam in lams:
            coeffs = sf.evaluate(lam)
            acc = forms[0].scale(coeffs[0])
            for c, g in zip(coeffs[1:], forms[1:]):
                acc = acc + g.scale(c)
            assert acc == weighted_norm_form(frame.m, frame.p, lam)


def test_scaling_coefficients_requires_verified_frame():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    bad = WeightedFrame(Field.R, 2, 4, f.vectors, (Fraction(1),) * 4)
    # an error is not kept with the frame: every call raises it again
    for call in (scaling_coefficients, scaling_coefficients, scaling_reduce):
        with pytest.raises(UnverifiedFrameError):
            call(bad)


def test_scaling_coefficients_requires_exact():
    with pytest.raises(FrameError):
        scaling_coefficients(catalog(Field.R, 2, 4, "real2-equiangular"))


def test_scaling_coefficients_rejects_dependent_forms(synthetic_frame):
    doubled = WeightedFrame(
        Field.R, 2, 4,
        synthetic_frame.vectors + (synthetic_frame.vectors[0],),
        tuple(w / 2 for w in SYNTHETIC_WEIGHTS[:1])
        + SYNTHETIC_WEIGHTS[1:] + (SYNTHETIC_WEIGHTS[0] / 2,))
    assert verify(doubled).passed
    for call in (scaling_coefficients, scaling_coefficients, scaling_reduce):
        with pytest.raises(DependentFormsError, match="reduce"):
            call(doubled)


def test_scaling_expansion_fails_outside_span():
    # rotating the catalog moves its 4-form span off the diagonal family
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    c, s = Fraction(3, 5), Fraction(4, 5)
    rotated = WeightedFrame(
        Field.R, 2, 4,
        tuple(rvec(c * v.entries[0].components[0] - s * v.entries[1].components[0],
                   s * v.entries[0].components[0] + c * v.entries[1].components[0])
              for v in f.vectors),
        f.weights)
    assert verify(rotated).passed
    with pytest.raises(ScalingExpansionError):
        scaling_coefficients(rotated)


def test_scaling_reduce_drops_one_vector(synthetic_frame):
    reduced = scaling_reduce(synthetic_frame)
    assert reduced is not None
    assert reduced.n == 4
    assert not reduced.is_exact
    assert verify(reduced, tolerance=1e-8).passed
    # the bisection walks toward the exact zero at (2/3, 4/3) where the
    # coefficient of direction (1, 0) vanishes, so (0, 1) leads the rest
    coords = [tuple(float(e.components[0]) for e in v.entries)
              for v in reduced.vectors]
    assert coords[0][0] == 0.0 and coords[0][1] > 0
    assert all(x != 0 and y != 0 for x, y in coords[1:])


def test_scaling_reduce_reduced_weights(synthetic_frame):
    reduced = scaling_reduce(synthetic_frame)
    target = (4 / 3, 40 / 243, 4 / 243, 4 / 243)
    assert len(reduced.weights) == 4
    for w, t in zip(reduced.weights, target):
        assert math.isclose(float(w), t, rel_tol=1e-6)


def test_scaling_reduce_none_when_nonnegative():
    assert scaling_reduce(catalog(Field.R, 2, 2, "orthonormal-p2")) is None
    assert scaling_reduce(catalog(Field.C, 3, 2, "orthonormal-p2")) is None
    assert scaling_reduce(catalog(Field.R, 3, 2, "orthonormal-p2"), grid=40) is None
    # the default grid keeps an interior node for every m
    for m in (6, 7, 8):
        assert scaling_reduce(catalog(Field.R, m, 2, "orthonormal-p2")) is None


def test_scaling_reduce_grid2_hits_exact_zeros(synthetic_frame):
    # both grid=2 nodes land exactly on zeros of a_hat, which is not a
    # strictly negative certificate, so no reduction is attempted
    sf = scaling_coefficients(synthetic_frame)
    assert sf.a_hat((Fraction(2, 3), Fraction(4, 3))) == 0
    assert sf.a_hat((Fraction(4, 3), Fraction(2, 3))) == 0
    assert scaling_reduce(synthetic_frame, grid=2) is None


def test_scaling_reduce_budget_exhaustion(synthetic_frame):
    # grid=3 sees a_hat = -1/8 at (1/2, 3/2); tolerance far below reach
    with pytest.raises(BudgetExhaustedError):
        scaling_reduce(synthetic_frame, grid=3, tolerance=1e-300)


def test_scaling_reduce_loose_tolerance_drops_small_weights(synthetic_frame):
    # tolerance above min weight stops the bisection at lambda = (1, 1)
    out = scaling_reduce(synthetic_frame, tolerance=0.02)
    assert out.n == 3
    assert out.weights == SYNTHETIC_WEIGHTS[:3]
    residual = verify(out, tolerance=2.0)
    assert residual.passed


def test_scaling_reduce_parameter_validation(synthetic_frame):
    # every refusal comes before the frame is verified or expanded
    def refused(frame, match, **kwargs):
        with pytest.raises(ValueError, match=match):
            scaling_reduce(frame, **kwargs)
        assert "_scaling_forms" not in vars(frame)

    refused(build_synthetic_frame(), "tolerance", tolerance=0.0)
    refused(build_synthetic_frame(), "tolerance", tolerance=-1e-9)
    refused(build_synthetic_frame(), "grid", grid=0)
    # the grid needs m - 1 cuts, and at most MAX_GRID_NODES nodes
    refused(catalog(Field.R, 7, 2, "orthonormal-p2"), "grid", grid=5)
    refused(build_synthetic_frame(), "nodes", grid=100_001)
    # a tolerance at or above every weight drops every vector at once
    with pytest.raises(FrameError, match="vanished"):
        scaling_reduce(synthetic_frame, tolerance=1)
    # no exact bisection compares against inf (1e400 parses as inf) or nan
    for tolerance in (math.inf, float("1e400"), math.nan, -math.inf):
        refused(build_synthetic_frame(), "finite and positive", tolerance=tolerance)


def test_scaling_reduce_nonfinite_bound():
    # the dropped vector's rescaled form overflows binary64, so the float
    # re-verification bound is 0 * inf = nan at 10^100, and at 10^400 the
    # entries themselves have no binary64 value: a typed error, not a defect
    for exponent in (100, 400):
        frame = build_rescaled_synthetic_frame(exponent)
        assert verify(frame).passed
        with pytest.raises(FrameError, match="not finite"):
            scaling_reduce(frame)


def test_scaling_reduce_refuses_a_rebuild_beyond_its_slack(monkeypatch):
    # the float rebuild is re-verified within 1e-8 plus the dropped
    # vectors' bound; square roots skewed by a relative 1e-7 leave a
    # residual beyond that, which must end in the defect error, not in a
    # returned frame that fails
    skewed = types.SimpleNamespace(**dict(vars(math), sqrt=lambda x: math.sqrt(x) * (1 + 1e-7)))
    monkeypatch.setattr(isoframe.frames, "math", skewed)
    with pytest.raises(RuntimeError, match="re-verification"):
        scaling_reduce(build_synthetic_frame())


def test_scaling_reduce_deterministic(synthetic_frame):
    a = scaling_reduce(synthetic_frame)
    b = scaling_reduce(build_synthetic_frame())
    assert a == b


def exact_branch_frame():
    """a_1 = lambda_1 - lambda_2 / 49, a_2 = a_3 = lambda_2 / 98."""
    vectors = tuple(rvec(a, b) for a, b in ((1, 0), (1, 7), (1, -7)))
    return WeightedFrame(Field.R, 2, 2, vectors,
                         (Fraction(48, 49), Fraction(1, 98), Fraction(1, 98)))


def test_scaling_reduce_exact_branch(monkeypatch):
    # with grid 2049 the bisection lands on mu = ((1/5)^2, (7/5)^2), where
    # a_1 = 0 exactly, so the rebuild is exact and re-verified with no tolerance
    frame = exact_branch_frame()
    assert verify(frame).passed
    calls = []
    exact_verify = isoframe.frames.verify

    def spy(f, tolerance=None):
        calls.append((f, tolerance))
        return exact_verify(f, tolerance)

    monkeypatch.setattr(isoframe.frames, "verify", spy)
    reduced = scaling_reduce(frame, grid=2049)
    assert reduced == WeightedFrame(Field.R, 2, 2, (rvec(5, 5), rvec(5, -5)),
                                    (Fraction(1, 50), Fraction(1, 50)))
    assert reduced.is_exact
    assert calls[-1] == (reduced, None)
    monkeypatch.undo()
    assert scaling_reduce(frame) is None


def simplex_parts(m, s):
    """Every (c_1, ..., c_m) of integers c_i >= 1 summing to s, in the order
    of the cuts 0 < b_1 < ... < b_{m-1} < s that separate them."""
    for cuts in combinations(range(1, s), m - 1):
        bounds = (0,) + cuts + (s,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def kernel_cases():
    """Scaling forms of the synthetic frame, the C^2 MUB design and the H^2
    orthonormal frame, each with an identically zero coefficient form
    appended, and seeded exact lambda of every kind the search evaluates:
    simplex nodes, refinement midpoints, bisection points over 2^40, int
    entries and zero entries."""
    rng = random.Random(5)
    for frame in (build_synthetic_frame(), mub_c2_p4(), catalog(Field.H, 2, 2, "orthonormal-p2")):
        sf = scaling_coefficients(frame)
        m, half = frame.m, frame.p // 2
        forms = ScalingForms(sf.coefficients + (RealForm.zero(m, half),))
        nodes = [tuple(Fraction(m * c, 10) for c in parts) for parts in simplex_parts(m, 10)]
        lams = list(nodes)
        lams += [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in zip(nodes, nodes[1:])]
        for _ in range(5):
            t = Fraction(rng.randrange(1, 2**40), 2**40)
            gamma = rng.choice(nodes)
            lams.append(tuple(1 + t * (g - 1) for g in gamma))
        lams += [tuple(rng.randint(-5, 9) for _ in range(m)) for _ in range(3)]
        lams += [(0,) * m, (Fraction(0),) + tuple(Fraction(rng.randint(1, 9), 7) for _ in range(m - 1))]
        yield forms, lams


def test_scaling_kernel_matches_form_evaluation():
    for forms, lams in kernel_cases():
        for lam in lams:
            expected = [evaluate(a, lam) for a in forms.coefficients]
            got = forms.evaluate(lam)
            assert got == expected and all(type(v) is Fraction for v in got)
            assert got[-1] == 0
            a_hat = forms.a_hat(lam)
            assert a_hat == min(expected) and type(a_hat) is Fraction


def test_scaling_kernel_rejects_float_input():
    # ScalingForms is exact only: float or mismatched forms are refused when
    # built, and a float lambda of the right length when evaluated
    forms, lams = next(kernel_cases())
    m, half = forms.coefficients[0].num_vars, forms.coefficients[0].degree
    with pytest.raises(ValueError, match="exact"):
        ScalingForms(forms.coefficients + (RealForm.monomial(m, (half,) + (0,) * (m - 1), 0.5),))
    for extra in (RealForm.monomial(m + 1, (half,) + (0,) * m),
                  RealForm.monomial(m, (half + 1,) + (0,) * (m - 1))):
        with pytest.raises(ValueError, match="variable count and degree"):
            ScalingForms(forms.coefficients + (extra,))
    with pytest.raises(ValueError, match="variable count and degree"):
        ScalingForms(())
    for lam in lams[::3]:
        for point in (tuple(map(float, lam)), (float(lam[0]) + 0.1,) + lam[1:]):
            with pytest.raises(ValueError, match="exact"):
                forms.evaluate(point)
            with pytest.raises(ValueError, match="exact"):
                forms.a_hat(point)


def test_scaling_kernel_rejects_wrong_length(synthetic_frame):
    sf = scaling_coefficients(synthetic_frame)
    for lam in ((Fraction(1),), (1, 2, 3), (1.0,), (0.5, 1.0, 2.0)):
        with pytest.raises(ValueError, match="coordinates"):
            sf.evaluate(lam)
        with pytest.raises(ValueError, match="coordinates"):
            sf.a_hat(lam)


def reference_search(forms, m, grid, tolerance):
    """The cone search on tuples of Fractions: a_hat at every node m c / S of
    the simplex (S = grid + 1), at the midpoint of every neighboring pair of
    opposite sign, then bisection from (1, ..., 1) toward the lowest point
    with mu and hi halved toward each other over Q.  Returns mu, or None
    when no value is negative; raises BudgetExhaustedError as scaling_reduce
    does after BISECTION_BUDGET steps."""
    s = grid + 1
    nodes = [tuple(Fraction(m * c, s) for c in parts) for parts in simplex_parts(m, s)]
    values = {node: forms.a_hat(node) for node in nodes}
    unit = Fraction(m, s)
    for u in nodes:
        if values[u] >= 0:
            continue
        for i, j in permutations(range(m), 2):
            v = list(u)
            v[i] -= unit
            v[j] += unit
            v = tuple(v)
            if v in values and values[v] >= 0:
                mid = tuple((a + b) / 2 for a, b in zip(u, v))
                values[mid] = forms.a_hat(mid)
    gamma, lowest = min(values.items(), key=lambda kv: (kv[1], kv[0]))
    if lowest >= 0:
        return None
    tol = Fraction(tolerance)
    mu, hi = (Fraction(1),) * m, gamma
    value = forms.a_hat(mu)
    spent = 0
    while value > tol:
        if spent >= isoframe.frames.BISECTION_BUDGET:
            raise BudgetExhaustedError(
                f"bisection budget {isoframe.frames.BISECTION_BUDGET} exhausted at "
                f"a_hat = {float(value):.3e} (tolerance {float(tol):.3e})")
        mid = tuple((a + b) / 2 for a, b in zip(mu, hi))
        mid_value = forms.a_hat(mid)
        if mid_value >= 0:
            mu, value = mid, mid_value
        else:
            hi = mid
        spent += 1
    return mu


def reference_reduce(frame, grid, tolerance=1e-9):
    """The reduced frame at the mu of `reference_search`: weights a_k(mu)
    above the tolerance, vectors scaled by mu_i^{-1/2}, exact when every mu_i
    is the square of a rational."""
    forms = scaling_coefficients(frame)
    if grid is None:
        grid = 33 if frame.m == 2 else 9 if frame.m == 3 else max(5, frame.m - 1)
    mu = reference_search(forms, frame.m, grid, tolerance)
    if mu is None:
        return None
    coeffs = forms.evaluate(mu)
    keep = [k for k, a in enumerate(coeffs) if a > Fraction(tolerance)]
    if all(math.isqrt(x.numerator) ** 2 == x.numerator
           and math.isqrt(x.denominator) ** 2 == x.denominator for x in mu):
        inv = [Fraction(math.isqrt(x.denominator), math.isqrt(x.numerator)) for x in mu]
    else:
        inv = [1.0 / math.sqrt(float(x)) for x in mu]
    vectors = tuple(KVector(frame.field, tuple(entry.scale(inv[i]) for i, entry in
                                               enumerate(frame.vectors[k].entries)))
                    for k in keep)
    return WeightedFrame(frame.field, frame.m, frame.p, vectors, tuple(coeffs[k] for k in keep))


def twisted(frame, seed):
    """Coordinate i of every vector times a seeded unit scalar alpha_i: a
    unitary diagonal map that commutes with diag(lambda), so the frame
    still verifies and keeps its a_k."""
    alphas = rational_unit_scalars(frame.field, frame.m, seed=seed)
    vectors = tuple(KVector(frame.field, tuple(k_mul(a, e) for a, e in zip(alphas, u.entries)))
                    for u in frame.vectors)
    return WeightedFrame(frame.field, frame.m, frame.p, vectors, frame.weights)


def reference_frames():
    """Seeded twists of designs over R, C and H that reduce, and of
    orthonormal frames that do not."""
    return [twisted(build_synthetic_frame(), 1),
            twisted(catalog(Field.R, 2, 4, "real2-rational-p4"), 2),
            twisted(exact_branch_frame(), 3),
            twisted(mub_c2_p4(), 4),
            twisted(design_h2_p4(), 5),
            twisted(catalog(Field.C, 3, 2, "orthonormal-p2"), 6),
            twisted(catalog(Field.H, 2, 2, "orthonormal-p2"), 7)]


def test_scaling_reduce_matches_reference_search():
    reductions = 0
    for frame in reference_frames():
        assert verify(frame).passed
        for grid in (None, 15, 20, 2049):
            if math.comb(grid or 1, frame.m - 1) > isoframe.frames.MAX_GRID_NODES:
                continue
            expected = reference_reduce(frame, grid)
            assert scaling_reduce(frame, grid=grid) == expected
            reductions += expected is not None
    assert reductions >= 15


def test_scaling_reduce_budget_text_matches_reference(monkeypatch):
    monkeypatch.setattr(isoframe.frames, "BISECTION_BUDGET", 3)
    texts = []
    for frame in reference_frames()[:5]:
        for grid in (None, 15, 20, 2049):
            try:
                expected = reference_reduce(frame, grid)
            except BudgetExhaustedError as exc:
                with pytest.raises(BudgetExhaustedError) as got:
                    scaling_reduce(frame, grid=grid)
                assert str(got.value) == str(exc)
                texts.append(str(exc))
            else:
                assert scaling_reduce(frame, grid=grid) == expected
    assert len(texts) == 17


def test_scaling_forms_kept_with_the_frame(monkeypatch, synthetic_frame):
    forms = scaling_coefficients(synthetic_frame)
    assert scaling_coefficients(synthetic_frame) is forms
    # the following search neither verifies the input frame nor reduces its
    # rows and slices again; it still re-verifies the reduced frame
    verified, rows = [], []
    exact_verify, add_row = isoframe.frames.verify, RowReducer.add_row

    def verify_spy(f, tolerance=None):
        verified.append(f)
        return exact_verify(f, tolerance)

    def add_row_spy(self, row):
        rows.append(row)
        return add_row(self, row)

    monkeypatch.setattr(isoframe.frames, "verify", verify_spy)
    monkeypatch.setattr(RowReducer, "add_row", add_row_spy)
    reduced = scaling_reduce(synthetic_frame)
    assert reduced.n == 4
    assert not any(f is synthetic_frame for f in verified) and verified[-1] is reduced
    assert rows == []
    # an equal frame that is another object computes its own forms
    other = build_synthetic_frame()
    assert scaling_reduce(other) == reduced
    assert any(f is other for f in verified) and rows
    assert scaling_coefficients(other).coefficients == forms.coefficients

