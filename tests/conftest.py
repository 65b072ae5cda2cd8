"""Shared fixtures: the reducible five-vector instance used across suites."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from isoframe.frames import WeightedFrame, catalog
from isoframe.kscalar import Field, KElement, KVector

SYNTHETIC_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -2), (2, -1))
SYNTHETIC_WEIGHTS = (Fraction(1, 2), Fraction(1, 2), Fraction(5, 27),
                     Fraction(1, 54), Fraction(1, 54))


def build_synthetic_frame():
    """Five rational directions whose forms form a basis of the quartic
    invariants at m = 2 over R; the unique positive weights are frozen here
    and re-derived by exact elimination in test_scaling."""
    vectors = tuple(
        KVector.from_reals(Field.R, [Fraction(a), Fraction(b)])
        for a, b in SYNTHETIC_DIRECTIONS)
    return WeightedFrame(Field.R, 2, 4, vectors, SYNTHETIC_WEIGHTS)


def build_rescaled_synthetic_frame(exponent=100):
    """The synthetic frame with vector 0 times 10^exponent and its weight
    divided by 10^(4 exponent): every weighted form is unchanged, so it
    verifies exactly."""
    f = build_synthetic_frame()
    big = Fraction(10**exponent)
    return WeightedFrame(Field.R, 2, 4, (f.vectors[0].scale_real(big),) + f.vectors[1:],
                         (f.weights[0] / big**4,) + f.weights[1:])


def criterion_4_frame(seed):
    """Acceptance criterion 4's redundant frame for seed.  From
    random.Random(seed): the half-weight union of two frames, each drawn
    from real2-rational-p4 and the synthetic frame, or of an orthonormal-p2
    frame over R, C or H at m = 2 or 3 with itself; then up to three times
    a vector repeated, with its weight split at a ratio in {1/5, ..., 4/5}."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        r24 = [catalog(Field.R, 2, 4, "real2-rational-p4"), build_synthetic_frame()]
        a, b = rng.choice(r24), rng.choice(r24)
    else:
        field = rng.choice((Field.R, Field.C, Field.H))
        a = b = catalog(field, rng.choice((2, 3)), 2, "orthonormal-p2")
    frame = WeightedFrame(a.field, a.m, a.p, a.vectors + b.vectors,
                          tuple(w / 2 for w in a.weights + b.weights))
    for _ in range(rng.randint(0, 3)):
        idx, ratio = rng.randrange(frame.n), Fraction(rng.randint(1, 4), 5)
        w = frame.weights[idx]
        weights = frame.weights[:idx] + (w * ratio,) + frame.weights[idx + 1:]
        frame = WeightedFrame(frame.field, frame.m, frame.p, frame.vectors + (frame.vectors[idx],),
                              weights + (w * (1 - ratio),))
    return frame


def mub_c2_p4():
    """The three mutually unbiased bases of C^2, a projective 2-design."""
    def cvec(*entries):
        return KVector(Field.C, tuple(KElement(Field.C, (Fraction(a), Fraction(b)))
                                      for a, b in entries))
    vectors = (cvec((1, 0), (0, 0)), cvec((0, 0), (1, 0)), cvec((1, 0), (1, 0)),
               cvec((1, 0), (-1, 0)), cvec((1, 0), (0, 1)), cvec((1, 0), (0, -1)))
    return WeightedFrame(Field.C, 2, 4, vectors,
                         (Fraction(1, 2), Fraction(1, 2)) + (Fraction(1, 8),) * 4)


def design_h2_p4():
    """(1,0), (0,1), (1,+-1), (1,+-i), (1,+-j), (1,+-k) over H^2 with
    weights 1/3, 1/3, 1/12 x 8; a projective 2-design."""
    def quaternion(*comps):
        return KElement(Field.H, comps + (0,) * (4 - len(comps)))

    vectors = [KVector(Field.H, (quaternion(1), quaternion(0))),
               KVector(Field.H, (quaternion(0), quaternion(1)))]
    for unit in range(4):
        for sign in (1, -1):
            comps = [0, 0, 0, 0]
            comps[unit] = sign
            vectors.append(KVector(Field.H, (quaternion(1), quaternion(*comps))))
    return WeightedFrame(Field.H, 2, 4, tuple(vectors),
                         (Fraction(1, 3),) * 2 + (Fraction(1, 12),) * 8)


def e8_root_frame(p):
    """One root from each of the 120 antipodal pairs of the E8 roots over R^8
    (e_i + e_j and e_i - e_j for i < j, and the (1/2)(+-1, ..., +-1) with
    an even number of minus signs and a plus first), each with the weight
    1 / sum_u <u, e_1>^p.  The 240 roots form a spherical 7-design and not
    an 8-design (Delsarte, Goethals and Seidel, "Spherical codes and
    designs", 1977), so sum_u <u, x>^p is c |x|^p for p = 2, 4, 6, the
    weight makes c = 1, and at p = 8 the frame fails."""
    roots = []
    for i, j in combinations(range(8), 2):
        for sign in (1, -1):
            root = [0] * 8
            root[i], root[j] = 1, sign
            roots.append(root)
    for signs in product((1, -1), repeat=7):
        if signs.count(-1) % 2 == 0:
            roots.append([Fraction(1, 2)] + [Fraction(sign, 2) for sign in signs])
    weight = 1 / sum(Fraction(root[0]) ** p for root in roots)
    return WeightedFrame(Field.R, 8, p, tuple(KVector.from_reals(Field.R, root) for root in roots),
                         (weight,) * len(roots))


@pytest.fixture
def synthetic_frame():
    return build_synthetic_frame()
