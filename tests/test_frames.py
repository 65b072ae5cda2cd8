"""Weighted frames: verification, dependence reduction, catalog, I/O."""

import importlib.util
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import isoframe.frames
from isoframe.forms import (
    RealForm,
    _packed_norm_power,
    _scaled_linear_forms,
    frame_form,
    linear_combination,
    monomials,
    norm_power_form,
)
from isoframe.frames import (
    CertificateError,
    DependenceCertificate,
    FrameError,
    FrameParseError,
    WeightedFrame,
    catalog,
    dependence,
    load_frame,
    parse_frame,
    reduce_once,
    reduce_to_independent,
    save_frame,
    scaling_coefficients,
    scaling_reduce,
    serialize_frame,
    to_unweighted,
    verify,
)
from isoframe.kscalar import (
    Field,
    KElement,
    KVector,
    inner_product,
    k_norm_sq,
    rational_unit_scalars,
)
from isoframe.linalg import RowReducer
from isoframe.phi import dim_phi, phi_basis

from conftest import (
    build_rescaled_synthetic_frame,
    build_synthetic_frame,
    criterion_4_frame,
    design_h2_p4,
    e8_root_frame,
    mub_c2_p4,
)
from test_frozen import drawn_frame

ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rvec(*coords):
    return KVector.from_reals(Field.R, [Fraction(c) for c in coords])


def union(a, b):
    """Half-weight union of two frames over the same (field, m, p)."""
    return WeightedFrame(
        a.field, a.m, a.p, a.vectors + b.vectors,
        tuple(w / 2 for w in a.weights) + tuple(w / 2 for w in b.weights))


def split_vector(frame, index, ratio):
    """Duplicate one vector, splitting its weight by an exact ratio."""
    w = frame.weights[index]
    vectors = frame.vectors + (frame.vectors[index],)
    weights = list(frame.weights)
    weights[index] = w * ratio
    return WeightedFrame(frame.field, frame.m, frame.p, tuple(vectors),
                         tuple(weights) + (w * (1 - ratio),))


# construction guards

def test_frame_validation_errors():
    v = rvec(1, 0)
    with pytest.raises(FrameError):
        WeightedFrame(Field.R, 2, 3, (v,), (Fraction(1),))
    with pytest.raises(FrameError):
        WeightedFrame(Field.R, 2, 4, (), ())
    with pytest.raises(FrameError):
        WeightedFrame(Field.R, 2, 4, (v,), (Fraction(0),))
    with pytest.raises(FrameError):
        WeightedFrame(Field.R, 2, 4, (v,), (Fraction(1), Fraction(1)))
    with pytest.raises(FrameError):
        WeightedFrame(Field.R, 2, 4, (rvec(0, 0),), (Fraction(1),))
    with pytest.raises(FrameError):
        WeightedFrame(Field.R, 3, 4, (v,), (Fraction(1),))
    with pytest.raises(FrameError):
        WeightedFrame(Field.C, 2, 4, (v,), (Fraction(1),))
    with pytest.raises(FrameError, match="m must be"):
        WeightedFrame(Field.R, 0, 4, (v,), (Fraction(1),))


def test_frame_basic_properties():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    assert f.n == 4
    assert f.is_exact
    forms = tuple(frame_form(u, f.p) for u in f.vectors)
    assert len(forms) == 4 and all(g.degree == 4 for g in forms)
    # int entries and weights are stored as Fractions: the frame is exact
    ints = WeightedFrame(Field.R, 2, 2, (KVector.from_reals(Field.R, [1, 0]),
                                         KVector.from_reals(Field.R, [0, 1])), (1, 1))
    assert verify(ints).passed
    assert ints.is_exact
    assert all(type(w) is Fraction for w in ints.weights)
    assert dependence(ints) is None
    assert to_unweighted(ints, mode="exact") == ints
    text = serialize_frame(ints)
    assert json.loads(text)["weights"] == ["1", "1"]
    back = parse_frame(text)
    assert back == ints and back.is_exact


# verification

def test_catalog_p4_verifies_exactly():
    result = verify(catalog(Field.R, 2, 4, "real2-rational-p4"))
    assert result.passed
    assert result.residual.is_zero
    assert result.max_residual == 0.0


def test_shared_forms_are_read_only():
    # the cached packed norm power and the cached phi basis are shared by
    # every reader, so neither may change a verdict or a basis after the fact
    frame = catalog(Field.R, 2, 4, "real2-rational-p4")
    basis_form = phi_basis(Field.R, 2, 4).basis[0]
    basis_terms = dict(basis_form.terms)
    for terms in (_packed_norm_power(2, 4), basis_form.terms):
        before = dict(terms)
        with pytest.raises(AttributeError):
            terms.clear()
        with pytest.raises(TypeError):
            terms[next(iter(before))] = Fraction(0)
        assert terms == before
    assert verify(frame).passed
    assert phi_basis(Field.R, 2, 4).basis[0].terms == basis_terms


def test_orthonormal_verifies_for_all_fields():
    for field in (Field.R, Field.C, Field.H):
        for m in (1, 2, 3):
            assert verify(catalog(field, m, 2, "orthonormal-p2")).passed


def test_perturbed_weights_fail():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    bad = WeightedFrame(Field.R, 2, 4, f.vectors,
                        (f.weights[0] + Fraction(1, 100),) + f.weights[1:])
    result = verify(bad)
    assert not result.passed
    assert result.max_residual > 0


def test_equiangular_float_residual():
    for p in (4, 6):
        f = catalog(Field.R, 2, p, "real2-equiangular")
        assert f.n == p // 2 + 1
        assert not f.is_exact
        result = verify(f, tolerance=1e-12)
        assert result.passed
        assert result.max_residual <= 1e-12


def test_verify_rejects_overflowing_float_residual():
    # p = 4 powers of 1e300 overflow binary64: the first frame leaves an
    # infinite residual coefficient, the second inf - inf = nan.
    for rows in (((1e300, 0.0), (0.0, 1.0)), ((1e300, 1e300), (1e300, -1e300))):
        f = WeightedFrame(Field.R, 2, 4, tuple(KVector.from_reals(Field.R, r) for r in rows),
                          (Fraction(1), Fraction(1)))
        with pytest.raises(FrameError, match="overflow"):
            verify(f, tolerance=1e-9)
        assert not verify(f).passed


def test_verify_exact_residual_beyond_binary64():
    # the residual coefficient 10^400 is exact but has no float value
    f = WeightedFrame(Field.R, 2, 4, (rvec(10**100, 0), rvec(0, 1)),
                      (Fraction(1), Fraction(1)))
    result = verify(f)
    assert not result.passed
    assert max(abs(c) for c in result.residual.terms.values()) == 10**400 - 1
    with pytest.raises(FrameError, match="overflow"):
        result.max_residual
    with pytest.raises(FrameError, match="overflow"):
        verify(f, tolerance=1e-9)
    # below the overflow threshold the float maximum is the exact one rounded
    small = verify(WeightedFrame(Field.R, 2, 4, (rvec(10**70, 0), rvec(0, 1)),
                                 (Fraction(1), Fraction(1))))
    assert small.max_residual == float(10**280 - 1)


def test_verify_tolerance_validation():
    # a negative, nan or infinite tolerance is refused before any expansion
    for tolerance in (-1.0, math.nan, math.inf, -math.inf):
        f = catalog(Field.R, 2, 4, "real2-rational-p4")
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify(f, tolerance=tolerance)
        assert "_residual" not in vars(f)
    assert verify(catalog(Field.R, 2, 4, "real2-rational-p4"), tolerance=0.0).passed


def test_verify_gauge_invariant():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    scalars = rational_unit_scalars(Field.R, f.n, seed=51)
    gauged = WeightedFrame(
        f.field, f.m, f.p,
        tuple(u.scale_right(s) for u, s in zip(f.vectors, scalars)),
        f.weights)
    assert verify(gauged).passed


# dependence certificates and single reductions

def test_dependence_none_for_catalog():
    assert dependence(catalog(Field.R, 2, 4, "real2-rational-p4")) is None


def test_dependence_finds_duplicate():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    red = split_vector(f, 0, Fraction(1, 3))
    cert = dependence(red)
    assert cert is not None
    assert max(cert.omega) == 1
    assert cert.pivot == cert.omega.index(1)
    # only the two copies of vector 0 participate
    assert all(cert.omega[k] == 0 for k in (1, 2, 3))
    reduced = reduce_once(red, cert)
    assert reduced.n == red.n - 1
    assert verify(reduced).passed


def test_dependence_finds_parallel_vector():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    # (2, 2) is parallel to (1, 1): same form up to the factor 16
    extra = rvec(2, 2)
    g = WeightedFrame(f.field, 2, 4, f.vectors + (extra,),
                      tuple(w / 2 for w in f.weights) + (Fraction(1, 64),))
    cert = dependence(g)
    assert cert is not None
    omega_w = [o * w for o, w in zip(cert.omega, g.weights)]
    forms = tuple(frame_form(u, g.p) for u in g.vectors)
    acc = forms[0].scale(omega_w[0])
    for o, form in zip(omega_w[1:], forms[1:]):
        acc = acc + form.scale(o)
    assert acc.is_zero


def test_dependence_requires_exact():
    f = catalog(Field.R, 2, 4, "real2-equiangular")
    with pytest.raises(FrameError):
        dependence(f)


def test_reduce_once_rejects_bad_certificates():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    red = split_vector(f, 0, Fraction(1, 2))
    with pytest.raises(CertificateError):
        reduce_once(red, DependenceCertificate((1, 0, 0), 0))
    with pytest.raises(CertificateError):
        reduce_once(red, DependenceCertificate((Fraction(1, 2), 0, 0, 0, 0), 0))
    # max omega = 1 but not an actual dependence of these forms
    with pytest.raises(CertificateError):
        reduce_once(red, DependenceCertificate((1, Fraction(-1, 7), 0, 0, 0), 0))
    # entries that are neither ints nor Fractions: a float and a string
    for omega in ((0.5, 1.0, 0.0, 0.0), ("1", 1, 0, 0)):
        with pytest.raises(CertificateError, match="ints or Fractions"):
            reduce_once(f, DependenceCertificate(omega, 1))
    # an all-ones omega would drop every vector: no empty frame comes back
    for frame in (f, red):
        with pytest.raises(CertificateError):
            reduce_once(frame, DependenceCertificate((Fraction(1),) * frame.n, 0))


def test_reduce_once_drops_pivot_and_reweights():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    red = split_vector(f, 2, Fraction(2, 5))
    cert = dependence(red)
    out = reduce_once(red, cert)
    assert out.n == 4
    assert verify(out).passed
    assert sum(out.weights) < sum(red.weights) or sum(out.weights) == sum(red.weights)
    # the values handed on with the kept vectors are their own
    points = isoframe.frames._point_set(out.field, out.m, out.p)
    assert out._values == tuple(isoframe.frames._scaled_values(*_scaled_linear_forms(u), out.p,
                                                               points) for u in out.vectors)


def test_forms_expanded_once_across_reductions(monkeypatch):
    # verify, the dependence/reduce_once loop and the final verify decide on
    # values and expand nothing; a residual read expands each vector of its
    # frame once, and is the left fold's term for term
    calls = count_expansions(monkeypatch)
    base = catalog(Field.R, 2, 4, "real2-rational-p4")
    frame = union(split_vector(split_vector(base, 1, Fraction(1, 3)), 2, Fraction(3, 4)), base)
    assert verify(frame).passed
    current = frame
    while (cert := dependence(current)) is not None:
        current = reduce_once(current, cert)
    assert current.n < frame.n
    assert verify(current).passed
    assert calls == [] and all("_residual" not in vars(f) for f in (frame, current))
    for f in (frame, current):
        calls.clear()
        residual = verify(f).residual
        assert residual.is_zero and len(calls) == f.n
        assert typed_terms(residual.terms) == typed_terms(fold_residual(f))
        assert verify(f).residual is residual and len(calls) == f.n


def test_residual_memory_does_not_grow_with_the_vectors():
    # the residual sums each vector's expansion in as it is built and keeps
    # none, so e8_root_frame(4) with every vector listed twice at half the
    # weight gives the same residual at about the same peak memory, not
    # twice it; what the residual reads and keeps is built before tracing
    single = e8_root_frame(4)
    doubled = WeightedFrame(single.field, single.m, single.p, single.vectors * 2,
                            tuple(w / 2 for w in single.weights) * 2)
    peaks = []
    for frame in (single, doubled):
        assert frame._linear_forms and frame._weight_numerators
        _packed_norm_power(frame.field.real_dimension * frame.m, frame.p)
        tracemalloc.start()
        try:
            assert frame._residual is not None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert typed_terms(doubled._residual.terms) == typed_terms(single._residual.terms)
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_linear_forms_built_once_per_vector(monkeypatch):
    # verify, the proof pass, the value rows of a dependence/reduce_once
    # chain and the final verify read one build of the linear forms
    # <s_k u_k, x> per input vector: reduced frames inherit the kept ones.
    # The point sets, which read the linear forms of their own directions,
    # are built before counting.
    keys = ((Field.R, 2, 4), (Field.C, 2, 4), (Field.H, 2, 2))
    for key in keys:
        isoframe.frames._point_set(*key)
    calls = []
    build = isoframe.frames._scaled_linear_forms

    def counting_build(u):
        calls.append(u)
        return build(u)

    monkeypatch.setattr(isoframe.frames, "_scaled_linear_forms", counting_build)
    rng = random.Random(85)
    for field, m, p in keys:
        dim = dim_phi(field, m, p)
        for frame in (dependent_frame(rng, field, m, p, dim - 1),
                      dependent_frame(rng, field, m, p, dim + 2),
                      random_rational_frame(field, m, p, dim - 1, seed=85)):
            calls.clear()
            verify(frame)
            current = frame
            while (cert := dependence(current)) is not None:
                current = reduce_once(current, cert)
            verify(current)
            assert len(calls) == frame.n


def test_library_paths_read_expansions_not_forms():
    # exact frames are read as their integer values on the unisolvent points,
    # float frames as the float expansions, which are their forms
    base = catalog(Field.R, 2, 4, "real2-rational-p4")
    redundant = union(split_vector(base, 1, Fraction(1, 3)), base)
    synthetic = build_synthetic_frame()
    halved = WeightedFrame(Field.R, 2, 4,
                           tuple(u.scale_real(Fraction(1, 2)) for u in synthetic.vectors),
                           tuple(16 * w for w in synthetic.weights))
    floats = catalog(Field.R, 2, 6, "real2-equiangular")
    mixed = WeightedFrame(Field.R, 2, 4, halved.vectors, tuple(map(float, halved.weights)))
    for frame in (redundant, synthetic, halved, floats, mixed):
        assert verify(frame, tolerance=1e-9).passed
    assert verify(redundant).passed and verify(halved).passed
    current = redundant
    while (cert := dependence(current)) is not None:
        current = reduce_once(current, cert)
    assert current.n < redundant.n and verify(current).passed
    scaled = scaling_coefficients(halved).coefficients
    assert scaled == tuple(a.scale(16) for a in scaling_coefficients(synthetic).coefficients)
    assert scaling_reduce(synthetic).n == scaling_reduce(halved).n == synthetic.n - 1


def fold_residual(frame):
    """sum_k w_k |<u_k, x>|^p - <x, x>^{p/2} as the left fold acc + c * f
    over the frame forms and the norm power, on term dicts: each entry
    starts from int 0, and cancelled entries are dropped after every step."""
    forms = [frame_form(u, frame.p) for u in frame.vectors]
    forms.append(norm_power_form(frame.field, frame.m, frame.p))
    acc = {}
    for c, form in zip(frame.weights + (-1,), forms):
        for expo, coeff in form.terms.items():
            acc[expo] = acc.get(expo, 0) + c * coeff
        acc = {expo: v for expo, v in acc.items() if v != 0}
    return acc


def typed_terms(terms):
    """Keys in order, each coefficient with its type, a float as hex."""
    return [(e, c.hex() if isinstance(c, float) else c, type(c)) for e, c in terms.items()]


def float_frame(field, m, p, seed, mixed=False):
    """Four seeded vectors with float and Fraction weights: float entries,
    or with mixed every second vector rational with denominators up to 3."""
    rng = random.Random(seed)

    def entry(k):
        if mixed and k % 2:
            return Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return rng.uniform(-2, 2)

    vectors = tuple(KVector(field, tuple(KElement(field, tuple(
        entry(k) for _ in range(field.real_dimension))) for _ in range(m))) for k in range(4))
    return WeightedFrame(field, m, p, vectors, (0.25, Fraction(1, 3), 0.5, Fraction(2, 7)))


def exact_beside_float_weights(frame):
    """An exact verifying frame with every vector times 2/3, so s = 3, and
    every weight times (3/2)^p as a float: it still verifies."""
    return WeightedFrame(frame.field, frame.m, frame.p,
                         tuple(u.scale_real(Fraction(2, 3)) for u in frame.vectors),
                         tuple(float(w * Fraction(3, 2)**frame.p) for w in frame.weights))


FLOAT_VERIFY_CASES = [
    pytest.param(lambda: float_frame(Field.R, 3, 4, 1), False, id="R-float"),
    pytest.param(lambda: float_frame(Field.C, 2, 4, 2), False, id="C-float"),
    pytest.param(lambda: float_frame(Field.H, 2, 4, 3), False, id="H-float"),
    # the y^4 and x^2 y^2 terms come from the norm power alone
    pytest.param(lambda: WeightedFrame(Field.R, 2, 4, (KVector.from_reals(Field.R, (1.0, 0.0)),),
                                       (0.5,)), False, id="R-float-norm-only-terms"),
    pytest.param(lambda: float_frame(Field.R, 3, 6, 4, mixed=True), False, id="R-mixed"),
    pytest.param(lambda: float_frame(Field.C, 2, 4, 5, mixed=True), False, id="C-mixed"),
    pytest.param(lambda: float_frame(Field.H, 2, 2, 6, mixed=True), False, id="H-mixed"),
    pytest.param(lambda: exact_beside_float_weights(build_synthetic_frame()), True,
                 id="R-exact-beside-float-weights"),
    pytest.param(lambda: exact_beside_float_weights(mub_c2_p4()), True,
                 id="C-exact-beside-float-weights"),
    pytest.param(lambda: exact_beside_float_weights(design_h2_p4()), True,
                 id="H-exact-beside-float-weights"),
] + [pytest.param(lambda p=p: catalog(Field.R, 2, p, "real2-equiangular"), True,
                  id=f"real2-equiangular-p{p}") for p in range(2, 11, 2)]


@pytest.mark.parametrize("build, verifies", FLOAT_VERIFY_CASES)
def test_float_verify_matches_left_fold(build, verifies):
    # the packed expansions are summed once and unpacked once: a float u's
    # as they are, an exact u's divided by s^p as frame_form divides them,
    # each beside float or Fraction weights
    frame = build()
    assert not frame.is_exact
    result = verify(frame, tolerance=1e-9)
    assert result.passed is verifies
    assert typed_terms(result.residual.terms) == typed_terms(fold_residual(frame))


def weighted_row_dependence(frame):
    """Reference route: reduce the weighted forms w_k |<u_k,x>|^p and
    normalize the first dependency to max omega = 1."""
    reducer = RowReducer()
    for k, (u, w) in enumerate(zip(frame.vectors, frame.weights)):
        cert = reducer.add_row(frame_form(u, frame.p).scale(w).terms)
        if cert is not None:
            combo = [cert.get(j, Fraction(0)) for j in range(k)] + [Fraction(-1)]
            peak = max(combo)
            omega = [c / peak for c in combo] + [Fraction(0)] * (frame.n - k - 1)
            return DependenceCertificate(tuple(omega), omega.index(1))
    return None


def random_rational_vector(rng, field, m):
    """A nonzero vector with components num/den, num in [-3, 3], den in [1, 3]."""
    while True:
        u = KVector(field, tuple(
            KElement(field, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(field.real_dimension)))
            for _ in range(m)))
        if not u.is_zero:
            return u


def random_rational_frame(field, m, p, n, seed=0):
    """n random rational vectors with unit weights, zero vectors skipped."""
    rng = random.Random(seed)
    vectors = tuple(random_rational_vector(rng, field, m) for _ in range(n))
    return WeightedFrame(field, m, p, vectors, (Fraction(1),) * n)


def dependent_frame(rng, field, m, p, n):
    """n random vectors, a rescaled copy of one inserted among them, random
    weights: the copy makes the forms dependent whatever n is."""
    vectors = [random_rational_vector(rng, field, m) for _ in range(n)]
    copy = vectors[rng.randrange(len(vectors))].scale_real(Fraction(rng.randint(1, 5), 3))
    vectors.insert(rng.randrange(len(vectors) + 1), copy)
    weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in vectors)
    return WeightedFrame(field, m, p, tuple(vectors), weights)


def assert_chain_matches_weighted_rows(frame):
    """Each step of the dependence/reduce_once chain gives the weighted-row
    certificate; returns the number of steps."""
    current, steps = frame, 0
    while True:
        cert = dependence(current)
        assert cert == weighted_row_dependence(current)
        if cert is None:
            return steps
        assert all(isinstance(om, Fraction) for om in cert.omega)
        current = reduce_once(current, cert)
        steps += 1


def assert_chains_match_weighted_rows(keys=((Field.R, 2, 4), (Field.C, 2, 2),
                                            (Field.H, 2, 2), (Field.R, 3, 2))):
    # more vectors than dim Phi, plus a rescaled copy, force dependences;
    # each step of the chain must give the weighted-row certificate
    rng = random.Random(81)
    for field, m, p in keys:
        for _ in range(2):
            frame = dependent_frame(rng, field, m, p, dim_phi(field, m, p) + 2)
            assert assert_chain_matches_weighted_rows(frame) >= 3


def test_dependence_matches_weighted_rows():
    assert_chains_match_weighted_rows()


@pytest.mark.parametrize("field, m, p", [
    (Field.R, 3, 4), (Field.C, 2, 4), (Field.H, 2, 4),
    (Field.R, 2, 6), (Field.C, 2, 6), (Field.H, 2, 6),
])
def test_value_chains_match_weighted_rows(field, m, p):
    # certificates read from values at the unisolvent points are the
    # term-row ones, on frames longer than dim Phi (except H^2 at p = 6, whose
    # reference elimination is slow) and on short frames with a rescaled copy
    rng = random.Random(82)
    dim = dim_phi(field, m, p)
    if dim < 30:
        assert assert_chain_matches_weighted_rows(dependent_frame(rng, field, m, p, dim + 2)) >= 3
    for n in (1, 3, 5):
        frame = dependent_frame(rng, field, m, p, n)
        assert frame.n <= dim
        assert assert_chain_matches_weighted_rows(frame) >= 1


@pytest.mark.parametrize("field, m, p", [
    (Field.R, 2, 4), (Field.R, 3, 4), (Field.C, 2, 4), (Field.C, 3, 2),
    (Field.H, 2, 2), (Field.H, 2, 4), (Field.C, 2, 6), (Field.C, 3, 4),
    (Field.H, 3, 2), (Field.C, 4, 2), (Field.H, 4, 2), (Field.C, 1, 4),
    (Field.H, 1, 4), (Field.C, 3, 6), (Field.H, 3, 4),
])
def test_point_set_is_unisolvent_for_phi_basis(field, m, p):
    # independent oracle: the unit-group averaged basis of Phi, evaluated at
    # the point set Y, has full rank dim Phi.  Y is dim Phi points of the
    # lattice X where the last entry x_m is real, in X's order, and all of X
    # over R.
    points = isoframe.frames._point_set(field, m, p)
    d = field.real_dimension
    dim = dim_phi(field, m, p)
    lattice = tuple(e[1:] + (1,) + (0,) * (d - 1) for e in monomials(d * (m - 1) + 1, p))
    assert len(lattice) == math.comb(d * (m - 1) + p, p) >= dim
    assert len(points) == dim and set(points) <= set(lattice)
    positions = [lattice.index(pt) for pt in points]
    assert positions == sorted(set(positions))
    assert field is not Field.R or points == lattice
    assert all(type(x) is int for pt in points for x in pt)
    reducer = RowReducer()
    for form in phi_basis(field, m, p).basis:
        assert reducer.add_row(dict(enumerate(form.evaluate(pt) for pt in points))) is None
    assert reducer.rank == dim


class NoElimination:
    """Stands in for RowReducer where exact elimination must not run."""

    def add_row(self, row):
        raise AssertionError("exact elimination ran on a full-rank frame")


class CountingReducer(RowReducer):
    """Records every row that exact elimination receives, and its width."""

    widths = []
    rows = []

    def add_row(self, row):
        CountingReducer.widths.append(len(row))
        CountingReducer.rows.append(tuple(row.items()))
        return super().add_row(row)


@pytest.fixture
def fresh_point_sets():
    """Point sets built under a monkeypatch must not outlive the test."""
    isoframe.frames._point_set.cache_clear()
    yield
    isoframe.frames._point_set.cache_clear()


@pytest.mark.parametrize("field, m, p, n", [
    (Field.R, 4, 8, 25), (Field.H, 2, 4, 12),
    # the baseline frame of ROADMAP.md, which took 38 s of exact elimination
    (Field.C, 3, 6, 100),
])
def test_full_rank_frame_runs_no_exact_elimination(monkeypatch, field, m, p, n):
    monkeypatch.setattr(isoframe.frames, "RowReducer", NoElimination)
    frame = random_rational_frame(field, m, p, n)
    assert dependence(frame) is None
    assert "_residual" not in vars(frame)


def test_degenerate_proof_points_fall_back_to_exact_loop(monkeypatch):
    # one point repeated gives value rows of rank <= 1, which prove nothing:
    # every answer then comes from the values at the unisolvent points, and
    # is the same
    monkeypatch.setattr(isoframe.frames, "_proof_points",
                        lambda count, num_vars: [tuple(range(1, num_vars + 1))] * count)
    monkeypatch.setattr(isoframe.frames, "RowReducer", CountingReducer)
    assert_chains_match_weighted_rows()
    frame = random_rational_frame(Field.R, 4, 8, 25)
    CountingReducer.widths = []
    assert dependence(frame) is None
    # each value row enters the exact elimination once, at the point set's width
    assert "_values" in vars(frame)
    assert CountingReducer.widths == [dim_phi(Field.R, 4, 8)] * frame.n


def test_denominator_divisible_by_proof_prime_falls_back(monkeypatch):
    # (q x_1 + x_2)^4 = x_2^4 mod q at the proof points: the proof pass
    # proves nothing, and the exact elimination on the point set decides,
    # each value row entering it once at dim Phi = 5 columns
    q = isoframe.frames._PROOF_PRIME
    monkeypatch.setattr(isoframe.frames, "RowReducer", CountingReducer)
    CountingReducer.widths = []
    independent = WeightedFrame(Field.R, 2, 4, (rvec(1, 0), rvec(0, 1), rvec(1, Fraction(1, q))),
                                (Fraction(1),) * 3)
    assert dependence(independent) is None
    assert CountingReducer.widths == [5, 5, 5]
    dependent = WeightedFrame(Field.R, 2, 4, (rvec(0, 1), rvec(1, 0), rvec(Fraction(2, q), 0)),
                              (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)))
    cert = dependence(dependent)
    assert cert == weighted_row_dependence(dependent)
    assert cert.pivot == 1 and cert.omega[0] == 0
    CountingReducer.widths = []


def small_prime_with_passes(monkeypatch, keys):
    """Build the point sets of `keys` under the real prime, then patch
    _PROOF_PRIME to 5 and record, for each mod-q pass, whether a row lost
    its pivot."""
    for key in keys:
        isoframe.frames._point_set(*key)
    monkeypatch.setattr(isoframe.frames, "_PROOF_PRIME", 5)
    pivots, failed = isoframe.frames._pivots_mod_q, []

    def recording_pivots(rows):
        found = list(pivots(rows))
        failed.append(None in found)
        return iter(found)

    monkeypatch.setattr(isoframe.frames, "_pivots_mod_q", recording_pivots)
    return failed


def test_mod_q_only_dependence_falls_back_to_value_rows(monkeypatch, fresh_point_sets):
    # modulo 5 many value rows look dependent; a proof pass that fails
    # modulo the prime sends dependence to the full value rows on the point
    # set, with the weighted-row certificates, also on frames that are
    # independent over Q
    keys = ((Field.R, 2, 4), (Field.C, 2, 4), (Field.H, 2, 2), (Field.R, 3, 4))
    failed = small_prime_with_passes(monkeypatch, keys)
    assert_chains_match_weighted_rows(keys[:3])
    rng = random.Random(83)
    for n in (3, 6):
        assert_chain_matches_weighted_rows(dependent_frame(rng, Field.R, 3, 4, n))
    mod_q_only = 0
    for field, m, p in keys[1:]:
        for seed in range(3):
            frame = random_rational_frame(field, m, p, dim_phi(field, m, p) - 2, seed=seed)
            del failed[:]
            cert = dependence(frame)
            assert cert == weighted_row_dependence(frame)
            mod_q_only += failed == [True] and cert is None
    assert mod_q_only > 0


def test_point_set_is_closed_form(monkeypatch, fresh_point_sets):
    # no random draw builds the point set, so every process chooses the
    # same one; over R it is the lattice, with no rank check modulo the prime
    def forbidden(*args):
        raise AssertionError("the point set drew at random or ran a mod-q pass")

    monkeypatch.setattr(isoframe.frames, "_proof_points", forbidden)
    monkeypatch.setattr(isoframe.frames, "random", None)
    first = {field: isoframe.frames._point_set(field, 2, 4) for field in (Field.C, Field.H)}
    isoframe.frames._point_set.cache_clear()
    assert {field: isoframe.frames._point_set(field, 2, 4) for field in first} == first
    for name in ("_pivots_mod_q", "dim_phi"):
        monkeypatch.setattr(isoframe.frames, name, forbidden)
    assert len(isoframe.frames._point_set(Field.R, 3, 4)) == math.comb(3 + 4 - 1, 4)
    # over R it is the lattice (alpha, 1), |alpha| <= p, in every coordinate
    assert isoframe.frames._point_set(Field.R, 2, 2) == ((0, 1), (1, 1), (2, 1))


def test_point_set_guards_its_rank(monkeypatch, fresh_point_sets):
    # the invariant products keep dim Phi pivots; a dimension one below or
    # one above the truth is a defect, at p = 4 and at p = 2, where building
    # the invariant values is most of the cost
    for field, m, p in ((Field.C, 2, 4), (Field.H, 2, 4), (Field.C, 4, 2), (Field.H, 3, 2)):
        dim = dim_phi(field, m, p)
        for claimed in (dim - 1, dim + 1):
            monkeypatch.setattr(isoframe.frames, "dim_phi", lambda field, m, p: claimed)
            with pytest.raises(RuntimeError, match=f"not dim Phi = {claimed}: a defect"):
                isoframe.frames._point_set(field, m, p)


def test_early_dependence_adds_two_rows(monkeypatch):
    # a frame longer than dim Phi whose vector 1 is twice vector 0 depends
    # at row 1: once the key's point set is built, dependence runs no mod-q
    # pass and adds rows 0 and 1 alone to the exact elimination
    passes = []
    pivots = isoframe.frames._pivots_mod_q
    monkeypatch.setattr(isoframe.frames, "_pivots_mod_q",
                        lambda rows: passes.append(None) or pivots(rows))
    monkeypatch.setattr(isoframe.frames, "RowReducer", CountingReducer)
    for field, m, p in ((Field.R, 3, 4), (Field.C, 2, 4), (Field.H, 2, 4)):
        isoframe.frames._point_set(field, m, p)
        drawn = random_rational_frame(field, m, p, dim_phi(field, m, p) + 3, seed=94)
        u = drawn.vectors[0]
        frame = WeightedFrame(field, m, p, (u, u.scale_real(2)) + drawn.vectors[2:], drawn.weights)
        del passes[:]
        CountingReducer.rows = []
        cert = dependence(frame)
        assert passes == [] and len(CountingReducer.rows) == 2
        assert cert == weighted_row_dependence(frame) and cert.pivot == 0
    CountingReducer.rows = []


def test_chain_after_a_tie_finds_its_own_columns():
    # acceptance criterion 4's seed-8 frame: the synthetic frame united with
    # real2-rational-p4, vector 0 split at 1/5.  Its fourth step drops two
    # vectors at n = 7, which can shrink the span, so the output starts a
    # fresh elimination; each one-vector drop hands on its elimination
    current = criterion_4_frame(8)
    drops = []
    while True:
        cert = dependence(current)
        assert cert == dependence(WeightedFrame(current.field, current.m, current.p,
                                                current.vectors, current.weights))
        if cert is None:
            break
        drops.append((current.n, cert.omega.count(1)))
        current = reduce_once(current, cert)
        assert (current._carried is not None) is (drops[-1][1] == 1)
    assert drops == [(10, 1), (9, 1), (8, 1), (7, 2), (5, 1)]


# seeded chains of dim Phi + 4 vectors, drawn by `dependent_frame` from
# random.Random(89): every step drops one vector
CHAIN_KEYS = ((Field.R, 2, 4), (Field.R, 3, 4), (Field.C, 2, 4), (Field.H, 2, 2), (Field.H, 2, 4))


def fresh(frame):
    """The same frame with nothing cached or handed on."""
    return WeightedFrame(frame.field, frame.m, frame.p, frame.vectors, frame.weights)


def negated(cert):
    """The negated certificate, rescaled to max omega = 1: valid whenever cert
    is, with the same top index k, and dropping another vector.  dependence
    gives row k a negative omega, so its own certificates drop some j < k;
    the negated one can drop k itself."""
    flipped = [-om for om in cert.omega]
    peak = max(flipped)
    return DependenceCertificate(tuple(om / peak for om in flipped), flipped.index(peak))


def test_chain_carries_one_exact_elimination(monkeypatch):
    # along each chain one exact elimination runs: every step after the
    # first carries it on, each full value row on the point set enters it
    # once, and every certificate is that of a fresh frame.  Every other
    # step reduces along the negated certificate, which dependence did not
    # produce, so steps drop the dependent row itself (j = k) as well as an
    # earlier row (j < k), whose later certificates are rewritten through
    # its record.
    monkeypatch.setattr(isoframe.frames, "RowReducer", CountingReducer)
    rng = random.Random(89)
    drops = Counter()
    for field, m, p in CHAIN_KEYS:
        for _ in range(4):
            current = dependent_frame(rng, field, m, p, dim_phi(field, m, p) + 4)
            CountingReducer.rows = []
            steps = []
            while (cert := dependence(current)) is not None:
                steps.append((current, cert))
                if len(steps) % 2 == 0 and negated(cert).omega.count(1) == 1:
                    cert = negated(cert)
                assert cert.omega.count(1) == 1
                drops[cert.pivot == max(i for i, om in enumerate(cert.omega) if om)] += 1
                current = reduce_once(current, cert)
                assert current._carried is not None
            steps.append((current, None))
            value_rows = Counter(tuple(enumerate(row)) for _, row in steps[0][0]._values)
            assert Counter(CountingReducer.rows) == value_rows
            for frame, cert in steps:
                assert cert == dependence(fresh(frame))
    CountingReducer.rows = []
    # j = k and j < k both occur
    assert drops[True] > 0 and drops[False] > 0


@pytest.mark.parametrize("field, m, p", [(Field.R, 2, 4), (Field.C, 2, 4), (Field.H, 2, 4)])
def test_chain_outputs_match_revalidated_frames(field, m, p):
    # reduce_once builds each output from its input's validated parts with
    # no __post_init__ pass.  The output must equal the frame the
    # constructor validates from its vectors and weights, with positive
    # Fraction weights, is_exact True, and the linear forms and values that
    # frame builds; a kept vector whose omega_k is 0 keeps the input's
    # weight object.  Over R, criterion 4's seed-8 frame adds a step that
    # drops two vectors
    rng = random.Random(93)
    chains = [dependent_frame(rng, field, m, p, dim_phi(field, m, p) + 6) for _ in range(2)]
    if field is Field.R:
        chains.append(criterion_4_frame(8))
    shared = 0
    for current in chains:
        while (cert := dependence(current)) is not None:
            out = reduce_once(current, cert)
            again = fresh(out)
            assert out == again and out.n < current.n
            assert all(type(w) is Fraction and w > 0 for w in out.weights)
            assert out.is_exact is True and again.is_exact is True
            assert out._linear_forms == again._linear_forms and out._values == again._values
            keep = [k for k, om in enumerate(cert.omega) if om != 1]
            assert out.n == len(keep)
            assert all(u is current.vectors[k] for u, k in zip(out.vectors, keep))
            for w, k in zip(out.weights, keep):
                if cert.omega[k] == 0:
                    assert w is current.weights[k]
                    shared += 1
            current = out
    assert shared > 0


def test_carried_candidate_that_fails_its_check_hands_on_the_full_rows(monkeypatch,
                                                                      fresh_point_sets):
    # modulo 5 value rows lose rank that they keep over Q.  The elimination
    # a chain carries is of the full value rows on the point set, so no
    # carried step has a candidate to check: under the small prime every
    # step after the first carries it on, runs no mod-q pass, adds rows at
    # dim Phi columns alone, and gives the certificate of a fresh frame
    failed = small_prime_with_passes(monkeypatch, CHAIN_KEYS)
    monkeypatch.setattr(isoframe.frames, "RowReducer", CountingReducer)
    rng = random.Random(89)
    for field, m, p in CHAIN_KEYS:
        dim = dim_phi(field, m, p)
        for _ in range(4):
            current = dependent_frame(rng, field, m, p, dim + 4)
            steps = []
            while True:
                carried = current._carried is not None
                del failed[:]
                CountingReducer.widths = []
                cert = dependence(current)
                steps.append((current, cert))
                assert carried is (len(steps) > 1)
                assert failed == [] and set(CountingReducer.widths) <= {dim}
                if cert is None:
                    break
                assert cert.omega.count(1) == 1
                current = reduce_once(current, cert)
            for frame, cert in steps:
                assert cert == dependence(fresh(frame))
    CountingReducer.widths = []


def test_parent_frame_keeps_its_own_elimination():
    # the elimination a frame hands on is copied before its child adds rows:
    # the parent asked again, after its child and grandchild moved on,
    # returns its own certificate from its cache, and a second child of the
    # same parent gets the first child's certificate
    rng = random.Random(92)
    parent = dependent_frame(rng, Field.C, 2, 4, dim_phi(Field.C, 2, 4) + 4)
    cert = dependence(parent)
    child = reduce_once(parent, cert)
    child_cert = dependence(child)
    grandchild = reduce_once(child, child_cert)
    assert dependence(grandchild) is not None
    found = vars(parent)["_first_dependence"]
    assert dependence(parent) == cert and vars(parent)["_first_dependence"] is found
    sibling = reduce_once(parent, cert)
    assert sibling._carried == child._carried
    assert dependence(sibling) == child_cert == dependence(fresh(child))


def test_a_frame_decides_its_dependence_once(monkeypatch):
    # dependence asked again returns the frame's first answer with no work:
    # a frame that the proof pass proves independent runs no point value
    # and no mod-q pass, and a dependent frame returns the same certificate
    # object with no row added to an exact elimination
    calls = Counter()
    for name in ("_scaled_values", "_pivots_mod_q"):
        def counted(*args, name=name, original=getattr(isoframe.frames, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(isoframe.frames, name, counted)
    monkeypatch.setattr(isoframe.frames, "RowReducer", CountingReducer)
    independent = drawn_frame(Field.C, 2, 6, 12)
    assert dependence(independent) is None and calls["_scaled_values"] == 12
    calls.clear()
    assert dependence(independent) is None and not calls
    dependent = criterion_4_frame(8)
    CountingReducer.rows = []
    cert = dependence(dependent)
    assert cert is not None and CountingReducer.rows
    calls.clear()
    CountingReducer.rows = []
    assert dependence(dependent) is cert
    assert not calls and CountingReducer.rows == []


def test_dependence_chain_expands_no_form():
    rng = random.Random(84)
    for field, m, p in ((Field.R, 2, 4), (Field.C, 2, 4), (Field.H, 2, 2)):
        current = dependent_frame(rng, field, m, p, dim_phi(field, m, p) + 2)
        chain = [current]
        while (cert := dependence(current)) is not None:
            current = reduce_once(current, cert)
            chain.append(current)
        assert len(chain) >= 3
        assert all("_residual" not in vars(frame) for frame in chain)


def test_reduce_once_requires_exact_frames():
    f = catalog(Field.R, 2, 4, "real2-equiangular")
    with pytest.raises(FrameError, match="exact"):
        reduce_once(f, DependenceCertificate((1, 0, 0), 0))


def test_proof_row_is_scaled_form_value():
    q = isoframe.frames._PROOF_PRIME
    rng = random.Random(7)
    for field, m, p in ((Field.R, 3, 4), (Field.C, 2, 6), (Field.H, 2, 4)):
        frame = WeightedFrame(field, m, p, tuple(
            random_rational_vector(rng, field, m) for _ in range(4)), (Fraction(1),) * 4)
        points = isoframe.frames._proof_points(5, field.real_dimension * m)
        for u in frame.vectors:
            s = math.lcm(*(c.denominator for e in u.entries for c in e.components))
            expected = [int(s**p * frame_form(u, p).evaluate(x)) % q for x in points]
            scale, values = isoframe.frames._scaled_values(*_scaled_linear_forms(u), p, points)
            assert scale == s and [v % q for v in values] == expected


def test_proof_row_and_frame_form_read_one_integer_expansion():
    q = isoframe.frames._PROOF_PRIME
    rng = random.Random(8)
    for field, m, p in ((Field.R, 3, 4), (Field.C, 2, 6), (Field.H, 2, 4)):
        n = field.real_dimension * m
        for _ in range(4):
            u = random_rational_vector(rng, field, m)
            s, rows = _scaled_linear_forms(u)
            assert s == math.lcm(*(c.denominator for e in u.entries for c in e.components))
            assert all(type(c) is int for row in rows for c in row)
            linear = [RealForm(n, 1, {tuple(int(k == j) for k in range(n)): c
                                      for j, c in enumerate(row)}) for row in rows]
            integer_form = linear_combination(
                (1,) * len(linear), [lin * lin for lin in linear]) ** (p // 2)
            assert all(type(c) is int for c in integer_form.terms.values())
            assert integer_form.scale(Fraction(1, s**p)) == frame_form(u, p)
            x = tuple(rng.randint(-999, 999) for _ in range(n))
            values = isoframe.frames._scaled_values(s, rows, p, [x])[1]
            assert [v % q for v in values] == [integer_form.evaluate(x) % q]


class NeverDependent(RowReducer):
    """A RowReducer whose exact elimination misses every dependence."""

    def add_row(self, row):
        super().add_row(row)
        return None


def test_proof_pass_guards_the_rank_bound(monkeypatch, synthetic_frame):
    # five independent forms against a claimed dimension of three
    monkeypatch.setattr(isoframe.frames, "dim_phi", lambda field, m, p: 3)
    with pytest.raises(RuntimeError, match="exceed dim Phi = 3"):
        dependence(synthetic_frame)
    # a repeated vector stops the pass mod q early; an exact fallback that
    # finds no dependence still leaves six forms above the claimed three
    f = synthetic_frame
    repeated = WeightedFrame(f.field, f.m, f.p, f.vectors + f.vectors[:1],
                             f.weights + f.weights[:1])
    monkeypatch.setattr(isoframe.frames, "RowReducer", NeverDependent)
    with pytest.raises(RuntimeError, match="exceed dim Phi = 3"):
        dependence(repeated)


def is_prime(n):
    """Deterministic Miller-Rabin: bases 2..37 decide every n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_proof_prime_is_prime_and_not_the_oracles():
    q = isoframe.frames._PROOF_PRIME
    assert q < 3.3e24 and is_prime(q)
    # the largest prime below 2^62
    assert not any(is_prime(n) for n in range(q + 1, 1 << 62))
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert q != load_oracles().PRIME


def test_reduce_to_independent_randomized():
    rng = random.Random(52)
    base = catalog(Field.R, 2, 4, "real2-rational-p4")
    for _ in range(10):
        frame = base
        for _ in range(rng.randint(1, 3)):
            idx = rng.randrange(frame.n)
            ratio = Fraction(rng.randint(1, 4), 5)
            frame = split_vector(frame, idx, ratio)
        frame = union(frame, base)
        assert verify(frame).passed
        reduced = reduce_to_independent(frame)
        assert verify(reduced).passed
        assert dependence(reduced) is None
        assert reduced.n <= dim_phi(Field.R, 2, 4)


def test_reduce_to_independent_noop():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    assert reduce_to_independent(f) == f


def test_reduce_to_independent_quaternionic_p2():
    base = catalog(Field.H, 2, 2, "orthonormal-p2")
    frame = union(base, base)
    reduced = reduce_to_independent(frame)
    assert verify(reduced).passed
    assert reduced.n <= dim_phi(Field.H, 2, 2)
    assert dependence(reduced) is None


# catalog

def test_catalog_equiangular_weights():
    for p in (4, 6, 8):
        f = catalog(Field.R, 2, p, "real2-equiangular")
        count = p // 2 + 1
        expected = Fraction(2 ** p, count * math.comb(p, p // 2))
        assert f.weights == (expected,) * count


def test_catalog_orthonormal_structure():
    f = catalog(Field.C, 3, 2, "orthonormal-p2")
    assert f.n == 3
    assert f.weights == (Fraction(1),) * 3
    for i, v in enumerate(f.vectors):
        assert v == KVector.canonical(Field.C, 3, i)


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        catalog(Field.R, 2, 4, "orthonormal-p2")
    with pytest.raises(ValueError):
        catalog(Field.C, 2, 4, "real2-equiangular")
    with pytest.raises(ValueError):
        catalog(Field.R, 2, 3, "real2-equiangular")
    with pytest.raises(ValueError):
        catalog(Field.R, 3, 4, "real2-rational-p4")
    with pytest.raises(ValueError):
        catalog(Field.R, 2, 4, "no-such-kind")


# unweighted form

def test_to_unweighted_float():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    uw = to_unweighted(f, mode="float")
    assert uw.n == f.n
    assert all(w == 1 for w in uw.weights)
    assert verify(uw, tolerance=1e-12).passed
    # a weight whose binary64 root is not finite and positive, or whose root
    # overflows an entry it is folded into or underflows the vector to zero,
    # is named
    no_root, leaves = "has no finite positive binary64 4-th root", "folded into vector 1 leaves"
    for weight, vector, message in [(Fraction(10**400), rvec(1, 0), no_root),
                                    (Fraction(1, 10**400), rvec(1, 0), no_root),
                                    (math.inf, rvec(1, 0), no_root),
                                    (Fraction(10**300), rvec(10**300, 0), leaves),
                                    (Fraction(1), rvec(10**400, 1), leaves),
                                    (Fraction(1, 10**300), rvec(Fraction(1, 10**300), 0), leaves)]:
        g = WeightedFrame(Field.R, 2, 4, (f.vectors[0], vector), (f.weights[0], weight))
        with pytest.raises(FrameError, match=f"^weight 1 {message}"):
            to_unweighted(g, mode="float")


def test_to_unweighted_exact_requires_pth_powers():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    with pytest.raises(FrameError, match="float"):
        to_unweighted(f, mode="exact")
    # a float weight has no exact root, even when it is a perfect power
    g = WeightedFrame(Field.R, 2, 4, f.vectors, (1.0,) + f.weights[1:])
    with pytest.raises(FrameError, match="not rational"):
        to_unweighted(g, mode="exact")


def test_to_unweighted_exact_on_unit_weights():
    f = catalog(Field.H, 3, 2, "orthonormal-p2")
    uw = to_unweighted(f, mode="exact")
    assert uw == f


def test_to_unweighted_exact_pth_power_weights():
    # direction lengths absorb the weights: w = 1/16 = (1/2)^4
    f = WeightedFrame(Field.R, 2, 4,
                      (rvec(2, 0), rvec(0, 2), rvec(2, 2), rvec(2, -2)),
                      (Fraction(2, 3) / 16, Fraction(2, 3) / 16,
                       Fraction(1, 6) / 16, Fraction(1, 6) / 16))
    assert verify(f).passed
    ratio = Fraction(2, 3) / 16
    # 2/3 / 16 = 1/24 is not a 4th power, so exact mode must refuse
    assert ratio == Fraction(1, 24)
    with pytest.raises(FrameError):
        to_unweighted(f, mode="exact")


def test_to_unweighted_exact_roots_of_large_weights():
    # p-th roots beyond binary64: 3^400/7^400 overflows a float and
    # (10^20+1)^6 has a root that float rounding misses by far more than 1
    big = WeightedFrame(Field.R, 2, 4, (rvec(1, 0),), (Fraction(3**400, 7**400),))
    assert to_unweighted(big, mode="exact").vectors == (rvec(Fraction(3**100, 7**100), 0),)
    sixth = WeightedFrame(Field.R, 2, 6, (rvec(0, 1),), (Fraction((10**20 + 1)**6),))
    assert to_unweighted(sixth, mode="exact").vectors == (rvec(0, 10**20 + 1),)
    near = WeightedFrame(Field.R, 2, 6, (rvec(0, 1),), (Fraction((10**20 + 1)**6 + 1),))
    with pytest.raises(FrameError, match="p-th power"):
        to_unweighted(near, mode="exact")


def test_to_unweighted_mode_validation():
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    with pytest.raises(ValueError):
        to_unweighted(f, mode="fast")


# serialization

def test_serialize_round_trip_exact():
    for field in (Field.R, Field.C, Field.H):
        f = catalog(field, 2, 2, "orthonormal-p2")
        text = serialize_frame(f)
        assert parse_frame(text) == f
        assert serialize_frame(parse_frame(text)) == text


def test_serialize_round_trip_float():
    f = catalog(Field.R, 2, 6, "real2-equiangular")
    back = parse_frame(serialize_frame(f))
    assert back == f  # bit-exact floats via repr round trip


def test_save_load(tmp_path):
    f = catalog(Field.R, 2, 4, "real2-rational-p4")
    path = tmp_path / "frame.json"
    save_frame(f, path)
    assert load_frame(path) == f
    payload = json.loads(path.read_text())
    assert payload["field"] == "R"
    assert payload["m"] == 2 and payload["p"] == 4
    assert len(payload["vectors"]) == 4
    # scalar entries are strings, d reals per entry
    assert payload["vectors"][0][0] == ["1"]
    assert payload["weights"][0] == "2/3"


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(FrameParseError):
        load_frame(tmp_path / "absent.json")


def test_parse_frame_diagnostics():
    good = json.loads(serialize_frame(catalog(Field.R, 2, 4, "real2-rational-p4")))

    def corrupt(**changes):
        obj = json.loads(json.dumps(good))
        obj.update(changes)
        return json.dumps(obj)

    with pytest.raises(FrameParseError, match="structured"):
        parse_frame("{\"field\": ")
    with pytest.raises(FrameParseError, match="object"):
        parse_frame("[1, 2]")
    with pytest.raises(FrameParseError, match="missing"):
        parse_frame("{}")
    with pytest.raises(FrameParseError):
        parse_frame(corrupt(field="Q"))
    with pytest.raises(FrameParseError):
        parse_frame(corrupt(m="two"))
    with pytest.raises(FrameParseError):
        parse_frame(corrupt(p=3))
    with pytest.raises(FrameParseError):
        parse_frame(corrupt(weights=["1", "-1", "1", "1"]))
    with pytest.raises(FrameParseError):
        parse_frame(corrupt(weights=["1"]))
    with pytest.raises(FrameParseError):
        parse_frame(corrupt(vectors=[[["1"]], [["0"]], [["1"]], [["1"]]]))
    with pytest.raises(FrameParseError):
        parse_frame(corrupt(vectors="nope"))
    bad_scalar = json.loads(json.dumps(good))
    bad_scalar["vectors"][0][0] = ["1/0"]
    with pytest.raises(FrameParseError):
        parse_frame(json.dumps(bad_scalar))
    wide_entry = json.loads(json.dumps(good))
    wide_entry["vectors"][0][0] = ["1", "0"]
    with pytest.raises(FrameParseError):
        parse_frame(json.dumps(wide_entry))
    for text in ("nan", "inf", "-inf", "1e400"):
        component = json.loads(json.dumps(good))
        component["vectors"][1][0] = [text]
        with pytest.raises(FrameParseError, match="non-finite"):
            parse_frame(json.dumps(component))
        with pytest.raises(FrameParseError, match="non-finite"):
            parse_frame(corrupt(weights=["1", "1", text, "1"]))
    with pytest.raises(FrameParseError, match="integers"):
        parse_frame(corrupt(m=True))
    with pytest.raises(FrameParseError, match="integers"):
        parse_frame(corrupt(p=True))


def test_exact_verify_residual_is_the_linear_combination():
    # the residual summed in ints over one denominator equals the Fraction
    # sum term for term, in the same term order, on passing and failing frames
    rng = random.Random(85)
    frames = [catalog(Field.R, 2, 4, "real2-rational-p4"), build_synthetic_frame(),
              build_rescaled_synthetic_frame(30)]
    frames += [catalog(field, 3, 2, "orthonormal-p2") for field in (Field.R, Field.C, Field.H)]
    frames += [dependent_frame(rng, field, m, p, 4) for field, m, p in
               ((Field.R, 3, 4), (Field.C, 2, 4), (Field.H, 2, 2), (Field.C, 2, 6))]
    frames.append(WeightedFrame(Field.R, 2, 4, (rvec(1, 0), rvec(0, 1)), (1, 1)))
    # the xy terms of the first two forms cancel and the third adds one back
    frames.append(WeightedFrame(Field.R, 2, 2, (rvec(1, 1), rvec(1, -1), rvec(1, 2)), (1, 1, 1)))
    passed = []
    for frame in frames:
        assert frame.is_exact
        expected = fold_residual(frame)
        result = verify(frame)
        assert (result.residual.num_vars, result.residual.degree) == (
            frame.field.real_dimension * frame.m, frame.p)
        assert typed_terms(result.residual.terms) == typed_terms(expected)
        assert all(type(c) is Fraction for c in result.residual.terms.values())
        assert result.passed == (not expected)
        passed.append(result.passed)
    assert True in passed and False in passed


def axis_design(field, p):
    """e_1, e_2 and (1, eps) in K^2 for the 2d units eps = +-1, +-e_a of K,
    with weights w_0 for the axes and w_0 / 2^{p/2} for the rest, where
    w_0 (1 + 2d / 2^{p/2}) = 1: a projective 3-design, so it verifies for
    p = 2, 4 and 6."""
    d = field.real_dimension
    one = KElement(field, (Fraction(1),) + (Fraction(0),) * (d - 1))
    zero = KElement.zero(field)
    units = [KElement(field, tuple(Fraction(sign * (a == b)) for b in range(d)))
             for a in range(d) for sign in (1, -1)]
    vectors = (KVector(field, (one, zero)), KVector(field, (zero, one))) + tuple(
        KVector(field, (one, e)) for e in units)
    w0 = 1 / (1 + Fraction(2 * d, 2 ** (p // 2)))
    return WeightedFrame(field, 2, p, vectors, (w0, w0) + (w0 / 2 ** (p // 2),) * (2 * d))


def seeded_design(field, p, rng):
    """axis_design under a seeded rational Householder reflection
    x -> x - v (2 <v, x> / |v|^2), each vector then gauged by a rational unit
    and rescaled by a rational c_k with its weight divided by c_k^p.  It still
    verifies, now with dense forms and mixed denominators."""
    frame = axis_design(field, p)
    v = random_rational_vector(rng, field, 2)
    twice = Fraction(2) / v.norm_sq()
    units = rational_unit_scalars(field, frame.n, seed=rng.randrange(1000))
    vectors, weights = [], []
    for u, w, alpha in zip(frame.vectors, frame.weights, units):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        reflected = u - v.scale_right(inner_product(v, u).scale(twice))
        vectors.append(reflected.scale_right(alpha).scale_real(c))
        weights.append(w / c**p)
    return WeightedFrame(field, 2, p, tuple(vectors), tuple(weights))


@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("field", [Field.R, Field.C, Field.H])
def test_integer_verify_matches_reference_combination(field, p):
    # the residual sums the cached integer expansions in ints; the reference
    # is the Fraction left fold over freshly expanded forms, term for term
    rng = random.Random(88 + p)
    for _ in range(2):
        frame = seeded_design(field, p, rng)
        k = rng.randrange(frame.n)
        weights = list(frame.weights)
        weights[k] *= 1 + Fraction(1, rng.randint(5, 97))
        failing = WeightedFrame(field, 2, p, frame.vectors, tuple(weights))
        for candidate, verdict in ((frame, True), (failing, False)):
            result = verify(candidate)
            assert result.passed is verdict
            assert typed_terms(result.residual.terms) == typed_terms(fold_residual(candidate))
            assert all(type(c) is Fraction for c in result.residual.terms.values())


def test_chain_frames_skip_the_proof_pass(monkeypatch):
    # a frame handed on by reduce_once carries its values on the unisolvent
    # points, so dependence goes straight to them, with the same certificates
    rng = random.Random(86)
    for field, m, p in ((Field.R, 3, 4), (Field.C, 2, 4), (Field.H, 2, 2)):
        frame = dependent_frame(rng, field, m, p, 4)
        assert frame.n <= dim_phi(field, m, p)
        cert = dependence(frame)
        assert cert is not None
        current = reduce_once(frame, cert)
        with monkeypatch.context() as patch:
            patch.setattr(isoframe.frames, "_proof_points", None)
            assert assert_chain_matches_weighted_rows(current) >= 0


def per_update_pivots(rows, prime):
    """Reference mod-q pass: every entry reduced after every pivot update."""
    reduced = []
    for row in rows:
        for col, inv, prow in reduced:
            if f := row[col] * inv % prime:
                row = [(a - f * b) % prime for a, b in zip(row, prow)]
        col = next((j for j, v in enumerate(row) if v), None)
        if col is not None:
            reduced.append((col, pow(row[col], -1, prime), row))
        yield col


@pytest.mark.parametrize("prime", [None, 5])
def test_pivots_mod_q_matches_per_update_reference(monkeypatch, fresh_point_sets, prime):
    # rows updated unreduced and reduced once give the columns of the
    # per-update reduction, under the proof prime and under 5, where many
    # factors and entries vanish mod q; the value rows are read under the
    # proof prime
    rng = random.Random(90)
    row_sets = []
    for field, m, p in ((Field.R, 3, 4), (Field.C, 2, 4), (Field.H, 2, 2)):
        frame = dependent_frame(rng, field, m, p, dim_phi(field, m, p) + 2)
        row_sets.append([list(values) for _, values in frame._values])
    if prime is not None:
        monkeypatch.setattr(isoframe.frames, "_PROOF_PRIME", prime)
    q = isoframe.frames._PROOF_PRIME
    for width, count in ((6, 9), (15, 12)):
        rows = [[rng.randint(-10**6, 10**6) for _ in range(width)] for _ in range(count)]
        rows.insert(3, [a - 2 * b for a, b in zip(rows[0], rows[1])])
        rows.insert(5, [0] * width)
        row_sets.append(rows)
    for rows in row_sets:
        rows = [[v % q for v in row] for row in rows]
        expected = list(per_update_pivots(rows, q))
        assert None in expected
        assert list(isoframe.frames._pivots_mod_q(rows)) == expected


def test_int_rows_reduce_as_their_fractions():
    # a row of ints is read as it stands, with sigma = 1; the same rows as
    # Fractions (and a bool row, which takes the general path) give the
    # same certificates and rank: dependence value rows over R, C and H and
    # the averaged rows of a phi_basis key
    rng = random.Random(91)
    row_sets = []
    for field, m, p in ((Field.R, 3, 4), (Field.C, 2, 4), (Field.H, 2, 2)):
        frame = dependent_frame(rng, field, m, p, dim_phi(field, m, p) + 2)
        row_sets.append([dict(enumerate(values)) for _, values in frame._values])
    average = isoframe.phi._averager(isoframe.phi._substitution_table(Field.C, 2), 2, 4)
    row_sets.append([average(beta) for beta in monomials(4, 4)])
    row_sets.append([{0: 1, 1: 0, 2: 3}, {0: True, 2: True}, {1: 2, 2: -5}, {0: 2, 2: 4}])
    for rows in row_sets:
        as_ints, as_fractions = RowReducer(), RowReducer()
        certs = [as_ints.add_row(row) for row in rows]
        assert certs == [as_fractions.add_row({key: Fraction(v) for key, v in row.items()})
                         for row in rows]
        assert any(cert is not None for cert in certs)
        assert as_ints.rank == as_fractions.rank


def count_expansions(monkeypatch):
    """Record each `_packed_frame_form` call that a frame's `_residual` makes
    as it sums the expansions in, one vector at a time."""
    calls = []
    expand = isoframe.frames._packed_frame_form

    def counting_expansion(s, linear, p):
        calls.append(linear)
        return expand(s, linear, p)

    monkeypatch.setattr(isoframe.frames, "_packed_frame_form", counting_expansion)
    return calls


def refuted_at_x0(frame):
    """Whether the point x0 of `verify` refutes the exact frame."""
    x0 = isoframe.frames._proof_points(1, frame.field.real_dimension * frame.m)
    return isoframe.frames._refuted_at(frame, x0, [
        isoframe.frames._scaled_values(s, linear, frame.p, x0)[1]
        for s, linear in frame._linear_forms])


def plus_vector_orthogonal_to_x0(frame):
    """frame plus u = (|b|^2 a, -|a|^2 b), x0 = (a, b), with weight 1/3:
    <u, x0> = |b|^2 |a|^2 - |a|^2 |b|^2 = 0 over R, C and H, so the new
    term vanishes at x0 and x0 refutes the frame only if it refutes the
    input."""
    d = frame.field.real_dimension
    x0 = isoframe.frames._proof_points(1, 2 * d)[0]
    a, b = KElement(frame.field, x0[:d]), KElement(frame.field, x0[d:])
    u = KVector(frame.field, (a.scale(k_norm_sq(b)), b.scale(-k_norm_sq(a))))
    return WeightedFrame(frame.field, 2, frame.p, frame.vectors + (u,),
                         frame.weights + (Fraction(1, 3),))


@pytest.mark.parametrize("p", [2, 4, 6, 8])
@pytest.mark.parametrize("field", [Field.R, Field.C, Field.H])
def test_exact_verdict_is_the_zero_test_of_the_residual(field, p):
    # whether x0 or Y refutes the frame, the verdict is that of the
    # left-fold residual: on seeded designs, which pass for p <= 6 (at
    # p = 8, where they fail, the perturbed one stands for both), the
    # designs with one weight perturbed, random frames, the frames
    # reduce_once returns, and for p <= 6 the design plus a vector
    # orthogonal to x0, which x0 does not refute and Y does
    rng = random.Random(92 + p)
    design = seeded_design(field, p, rng)
    weights = list(design.weights)
    weights[rng.randrange(design.n)] *= 1 + Fraction(1, rng.randint(5, 97))
    dependent = dependent_frame(rng, field, 2, p, 3)
    frames = [WeightedFrame(field, 2, p, design.vectors, tuple(weights)),
              random_rational_frame(field, 2, p, 4, seed=p),
              reduce_once(dependent, dependence(dependent))]
    if p <= 6:
        frames += [plus_vector_orthogonal_to_x0(design), design]
        assert not refuted_at_x0(frames[-2])
    verdicts = [verify(frame).passed for frame in frames]
    assert verdicts == [not fold_residual(frame) for frame in frames]
    assert verdicts == [False, False, False] + [False, True] * (p <= 6)


def test_failing_frame_that_vanishes_at_x0_fails_on_its_residual(monkeypatch):
    # an R^2 p = 2 orthonormal frame plus u orthogonal to x0 has the same
    # value at x0 as <x, x>, so the point proves nothing and the values on Y
    # decide, expanding nothing; the residual w <u, x>^2, built on first
    # read, is the left fold's term for term
    calls = count_expansions(monkeypatch)
    a, b = isoframe.frames._proof_points(1, 2)[0]
    frame = WeightedFrame(Field.R, 2, 2, (rvec(1, 0), rvec(0, 1), rvec(-b, a)),
                          (1, 1, Fraction(1, 3)))
    assert not refuted_at_x0(frame)
    result = verify(frame)
    assert not result.passed and calls == []
    assert typed_terms(result.residual.terms) == typed_terms(fold_residual(frame))
    assert len(calls) == frame.n


def test_failing_verdict_expands_nothing_until_the_residual_is_read(monkeypatch):
    # x0 refutes each failing frame with no expansion, and the values on Y
    # pass each design with none; a residual is built on first read, once
    # per frame, and is the left fold's term for term
    calls = count_expansions(monkeypatch)
    rng = random.Random(93)
    for field, p in ((Field.R, 4), (Field.C, 4), (Field.H, 2), (Field.C, 6)):
        design = seeded_design(field, p, rng)
        weights = list(design.weights)
        weights[0] *= Fraction(101, 100)
        for frame in (WeightedFrame(field, 2, p, design.vectors, tuple(weights)),
                      random_rational_frame(field, 2, p, 5, seed=p)):
            calls.clear()
            result = verify(frame)
            assert result.passed is False and calls == []
            expected = fold_residual(frame)
            assert result.max_residual == float(max(abs(c) for c in expected.values()))
            assert typed_terms(result.residual.terms) == typed_terms(expected)
            assert len(calls) == frame.n
            again = verify(frame)
            assert again.passed is False and again.residual is result.residual
            assert len(calls) == frame.n
        calls.clear()
        result = verify(design)
        assert result.passed and calls == []
        assert typed_terms(result.residual.terms) == typed_terms(fold_residual(design))
        assert result.residual.is_zero and len(calls) == design.n
        assert verify(design).residual is result.residual and len(calls) == design.n


def test_e8_roots_verify_up_to_their_design_strength(monkeypatch):
    # an independent oracle: the E8 roots form a spherical 7-design and not
    # an 8-design, so the frame verifies at p = 2, 4 and 6, on the values at
    # the unisolvent points, and fails at p = 8, where x0 refutes it; no
    # verdict expands a form
    calls = count_expansions(monkeypatch)
    for p in (2, 4, 6):
        assert verify(e8_root_frame(p)).passed
    assert calls == []
    frame = e8_root_frame(8)
    assert frame.n == 120 and not verify(frame).passed
    assert calls == [] and "_residual" not in vars(frame)


@pytest.mark.parametrize("make", [build_synthetic_frame, mub_c2_p4, design_h2_p4,
                                  lambda: e8_root_frame(4)],
                         ids=["quick-start", "C2-mub", "H2-design", "E8-p4"])
def test_verified_independent_frame_decides_by_the_proof_pass(monkeypatch, make):
    # a passing verify leaves the values on Y built; dependence still runs
    # the proof pass on a frame that carries no elimination, and adds no
    # row to an exact elimination over R, C and H
    monkeypatch.setattr(isoframe.frames, "RowReducer", CountingReducer)
    frame = make()
    assert verify(frame).passed and "_values" in vars(frame)
    CountingReducer.rows = []
    assert dependence(frame) is None
    assert CountingReducer.rows == []


def test_scaling_coefficients_expand_nothing(monkeypatch):
    # the coefficient forms come from the values on Y, so no form is
    # expanded over R, C and H
    calls = count_expansions(monkeypatch)
    for frame in (build_synthetic_frame(), mub_c2_p4(), design_h2_p4(),
                  catalog(Field.H, 2, 2, "orthonormal-p2")):
        assert scaling_coefficients(frame).coefficients
        assert calls == [] and "_residual" not in vars(frame)
