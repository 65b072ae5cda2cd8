"""Release acceptance checklist.

One test per criterion; each runs the full computation at the stated
tolerance and time budget, so `pytest -v` prints one pass/fail line per
criterion. Oracles are independent derivations, not replays of the
implementation.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from isoframe.cli import EXIT_PASS, entry
from isoframe.forms import RealForm, frame_form, monomials, sphere_moment
from isoframe.frames import (
    WeightedFrame,
    catalog,
    dependence,
    reduce_once,
    reduce_to_independent,
    save_frame,
    load_frame,
    scaling_coefficients,
    verify,
)
from isoframe.kscalar import (
    Field,
    KElement,
    KVector,
    inner_product,
    rational_unit_scalars,
)
from isoframe.phi import dim_phi, phi_basis, unit_group_average, upper_bound

from conftest import build_synthetic_frame, criterion_4_frame

FIELDS = (Field.R, Field.C, Field.H)


def rvec(*coords):
    return KVector.from_reals(Field.R, [Fraction(c) for c in coords])


def rational_kvector(field, m, rng, span=3):
    d = field.real_dimension
    while True:
        v = KVector(field, tuple(
            KElement(field, tuple(Fraction(rng.randint(-span, span), rng.randint(1, 2))
                                  for _ in range(d)))
            for _ in range(m)))
        if not v.is_zero:
            return v


def reflect(v, x):
    """Exact Householder reflection x - v * (2 <v,x> / |v|^2); unitary and
    right-linear over every K."""
    factor = inner_product(v, x).scale(2 / v.norm_sq())
    return x - v.scale_right(factor)


def apply_unitary(frame, v):
    return WeightedFrame(frame.field, frame.m, frame.p,
                         tuple(reflect(v, u) for u in frame.vectors),
                         frame.weights)


def real_p2_basis_frame():
    """Three directions whose quadratic forms form a basis at m = 2 over R."""
    f = WeightedFrame(Field.R, 2, 2,
                      (rvec(1, 2), rvec(1, -1), rvec(3, 1)),
                      (Fraction(2, 15), Fraction(5, 12), Fraction(1, 20)))
    return f


def corpus():
    frames = [
        catalog(Field.R, 2, 4, "real2-rational-p4"),
        build_synthetic_frame(),
        real_p2_basis_frame(),
    ]
    for field in FIELDS:
        for m in (2, 3):
            frames.append(catalog(field, m, 2, "orthonormal-p2"))
    return frames


def test_criterion_1_exact_catalog_verification():
    """The rational 4-vector quartic catalog frame verifies with an
    identically zero residual form in under a second."""
    start = time.perf_counter()
    result = verify(catalog(Field.R, 2, 4, "real2-rational-p4"))
    elapsed = time.perf_counter() - start
    assert result.passed
    assert result.residual.is_zero
    assert result.max_residual == 0.0
    assert elapsed < 1.0


def test_criterion_2_dimension_oracles():
    """Invariant-space dimensions match independent counts within the time
    budget; the quaternionic m=2, p=4 space passes idempotence and 20
    invariance witnesses in under five minutes."""
    cheap = [
        (Field.R, 2, 4, math.comb(2 + 4 - 1, 4)),
        (Field.R, 3, 4, math.comb(3 + 4 - 1, 4)),
        (Field.C, 2, 4, math.comb(2 + 2 - 1, 2) ** 2),
    ]
    for field, m, p, expected in cheap:
        start = time.perf_counter()
        assert dim_phi(field, m, p) == expected
        assert time.perf_counter() - start < 10.0
    for field in FIELDS:
        for p in (2, 4, 6):
            start = time.perf_counter()
            assert dim_phi(field, 1, p) == 1
            assert time.perf_counter() - start < 10.0

    start = time.perf_counter()
    basis = phi_basis(Field.H, 2, 4)
    dim = basis.dimension
    # frozen anchor, cross-checked against the count of degree-2 monomials
    # in the six basic quadratic invariants minus their single relation
    assert dim == 20 == math.comb(6 + 1, 2) - 1
    for f in basis.basis[:4]:
        assert unit_group_average(f, Field.H, 2) == f
    rng = random.Random(2024)
    scalars = rational_unit_scalars(Field.H, 20, seed=2024)
    for s in scalars:
        x = rational_kvector(Field.H, 2, rng)
        gauged = x.scale_right(s).real_coords()
        plain = x.real_coords()
        f = basis.basis[rng.randrange(dim)]
        assert f.evaluate(gauged) == f.evaluate(plain)
    assert time.perf_counter() - start < 300.0


def test_criterion_3_bound_instantiation():
    """Known frames sit at or below dim - 1."""
    equi = catalog(Field.R, 2, 4, "real2-equiangular")
    assert equi.n == 3 <= upper_bound(Field.R, 2, 4) == 4
    for field in FIELDS:
        for m in (2, 3):
            ortho = catalog(field, m, 2, "orthonormal-p2")
            assert verify(ortho).passed
            assert ortho.n == m
            assert m <= dim_phi(field, m, 2) - 1


# sha256 of repr(list over the 50 seeds of [(pivot, omega), ...] per step),
# recorded with the earlier dense-row elimination: any exact elimination must
# give the same certificates, since each is unique.
PIPELINE_CERTIFICATES_SHA256 = (
    "3dccb14b75958bda6320203f09766e4659f66c0447c6432019c824c465cad49d")


def test_criterion_4_dependence_reduction_pipeline():
    """50 seeded redundant frames reduce to independence with exact
    verification preserved at every step and strictly decreasing n; the
    certificates of every step match the recorded ones."""
    chains = []
    for seed in range(50):
        frame = criterion_4_frame(seed)
        assert verify(frame).passed

        chain = []
        current = frame
        while True:
            cert = dependence(current)
            if cert is None:
                break
            chain.append((cert.pivot, cert.omega))
            nxt = reduce_once(current, cert)
            # drops every index where the certificate tops out, so possibly
            # more than one vector per step
            assert nxt.n < current.n
            assert verify(nxt).passed
            current = nxt
        assert current.n <= dim_phi(current.field, current.m, current.p)
        assert current == reduce_to_independent(frame)
        assert chain  # every constructed frame is redundant
        chains.append(chain)
    digest = hashlib.sha256(repr(chains).encode()).hexdigest()
    assert digest == PIPELINE_CERTIFICATES_SHA256


def test_criterion_5_expansion_identity():
    """For every verified independent corpus frame the diagonal family
    expands exactly: sum_k a_k(lambda) f_k(x) equals the lifted target as a
    polynomial in all variables, with a_k(1,...,1) = w_k."""
    for frame in corpus():
        assert verify(frame).passed
        sf = scaling_coefficients(frame)
        half = frame.p // 2
        forms = [frame_form(u, frame.p) for u in frame.vectors]
        squares = [frame_form(KVector.canonical(frame.field, frame.m, i), 2)
                   for i in range(frame.m)]
        # reconstruct the lambda-coefficient of the target independently:
        # (sum_i lambda_i g_i)^(p/2) has multinomial(p/2; nu) prod g_i^nu_i
        for nu in monomials(frame.m, half):
            weight = math.factorial(half)
            target = None
            for i, e in enumerate(nu):
                weight //= math.factorial(e)
                for _ in range(e):
                    target = squares[i] if target is None else target * squares[i]
            target = target.scale(weight)
            acc = RealForm.zero(target.num_vars, frame.p)
            for a, f in zip(sf.coefficients, forms):
                acc = acc + f.scale(a.terms.get(nu, Fraction(0)))
            assert acc == target
        for a in sf.coefficients:
            assert a.degree == half and a.num_vars == frame.m
        ones = (Fraction(1),) * frame.m
        assert tuple(sf.evaluate(ones)) == frame.weights


def test_criterion_6_scaling_reduction_cli(tmp_path, capsys):
    """The reducible five-vector instance loses exactly one vector through
    the command driver with float residual <= 1e-8 in under 30 s; the
    orthonormal p=2 frame reports none."""
    src = tmp_path / "synthetic.json"
    out = tmp_path / "reduced.json"
    save_frame(build_synthetic_frame(), src)
    start = time.perf_counter()
    code = entry(["scale-reduce", str(src), "--out", str(out),
                  "--output", "json"])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert report["result"] == "reduced"
    assert report["n_initial"] == 5 and report["n_final"] == 4
    reduced = load_frame(out)
    assert reduced.n == 4
    assert verify(reduced, tolerance=1e-8).passed
    assert verify(reduced, tolerance=1e-8).max_residual <= 1e-8
    assert elapsed < 30.0

    ortho = tmp_path / "ortho.json"
    save_frame(catalog(Field.R, 2, 2, "orthonormal-p2"), ortho)
    code = entry(["scale-reduce", str(ortho), "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert report["result"] == "none"


def test_criterion_7_invariance_suite():
    """100 right-unit-scalar gauges and 20 global unitaries never change an
    exact verify verdict, across all three fields, for passing and failing
    frames alike."""
    cases = []
    for field in FIELDS:
        good = catalog(field, 2, 2, "orthonormal-p2")
        bad = WeightedFrame(field, 2, 2, good.vectors,
                            (Fraction(2), Fraction(1)))
        cases.append((good, True))
        cases.append((bad, False))
    cases.append((catalog(Field.R, 2, 4, "real2-rational-p4"), True))
    cases.append((build_synthetic_frame(), True))

    for frame, expected in cases:
        assert verify(frame).passed is expected
        scalars = rational_unit_scalars(frame.field, 100 * frame.n, seed=77)
        for trial in range(100):
            batch = scalars[trial * frame.n:(trial + 1) * frame.n]
            gauged = WeightedFrame(
                frame.field, frame.m, frame.p,
                tuple(u.scale_right(s) for u, s in zip(frame.vectors, batch)),
                frame.weights)
            assert verify(gauged).passed is expected
        rng = random.Random(78)
        for _ in range(20):
            v = rational_kvector(frame.field, frame.m, rng)
            rotated = apply_unitary(frame, v)
            assert rotated.is_exact
            assert verify(rotated).passed is expected


def test_criterion_8_moment_normalization():
    """Multinomial-weighted moment sums over the sphere equal 1 exactly."""
    for num_vars in (2, 3, 4, 8):
        for a in (1, 2, 3, 4):
            total = Fraction(0)
            for halves in monomials(num_vars, a):
                weight = math.factorial(a)
                for h in halves:
                    weight //= math.factorial(h)
                total += weight * sphere_moment(tuple(2 * h for h in halves),
                                                num_vars)
            assert total == 1
