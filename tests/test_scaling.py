"""Scaling coefficients and the diagonal-pushforward reduction."""

import math
from fractions import Fraction

import pytest

from isoframe.forms import RealForm, abs_inner_sq_form, form_inner, frame_form
from isoframe.frames import (
    BudgetExhaustedError,
    DependentFormsError,
    FrameError,
    ScalingExpansionError,
    UnverifiedFrameError,
    WeightedFrame,
    catalog,
    scaling_coefficients,
    scaling_reduce,
    verify,
)
from isoframe.kscalar import Field, KElement, KVector, k_mul, rational_unit_scalars
from isoframe.linalg import RowReducer
from isoframe.forms import monomials
from isoframe.phi import dual_basis

from conftest import SYNTHETIC_WEIGHTS, build_rescaled_synthetic_frame, build_synthetic_frame


def rvec(*coords):
    return KVector.from_reals(Field.R, [Fraction(c) for c in coords])


def weighted_norm_form(m, p, lam):
    """(sum_i lam_i |xi_i|^2)^(p/2) over R at a fixed rational lambda."""
    acc = RealForm.zero(m, 2)
    for i in range(m):
        e = KVector.canonical(Field.R, m, i)
        acc = acc + abs_inner_sq_form(e).scale(lam[i])
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
    duals = dual_basis(frame.forms).duals
    norms = [abs_inner_sq_form(KVector.canonical(frame.field, m, i)) for i in range(m)]
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
    with pytest.raises(UnverifiedFrameError):
        scaling_coefficients(bad)


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
    with pytest.raises(DependentFormsError, match="reduce"):
        scaling_coefficients(doubled)


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
    with pytest.raises(ValueError):
        scaling_reduce(synthetic_frame, tolerance=0.0)
    with pytest.raises(ValueError):
        scaling_reduce(synthetic_frame, tolerance=-1e-9)
    with pytest.raises(ValueError):
        scaling_reduce(synthetic_frame, grid=0)
    # the grid needs m - 1 cuts, and at most MAX_GRID_NODES nodes
    with pytest.raises(ValueError, match="grid"):
        scaling_reduce(catalog(Field.R, 7, 2, "orthonormal-p2"), grid=5)
    with pytest.raises(ValueError, match="nodes"):
        scaling_reduce(synthetic_frame, grid=100_001)


def test_scaling_reduce_nonfinite_bound():
    # the dropped vector's rescaled form overflows binary64, so the float
    # re-verification bound is 0 * inf = nan at 10^100, and at 10^400 the
    # entries themselves have no binary64 value: a typed error, not a defect
    for exponent in (100, 400):
        frame = build_rescaled_synthetic_frame(exponent)
        assert verify(frame).passed
        with pytest.raises(FrameError, match="not finite"):
            scaling_reduce(frame)


def test_scaling_reduce_deterministic(synthetic_frame):
    a = scaling_reduce(synthetic_frame)
    b = scaling_reduce(build_synthetic_frame())
    assert a == b
