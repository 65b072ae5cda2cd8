"""Seeded input generators: exact designs, random rational reflections,
unions, weight splits, unit-phase twists, weight perturbations and random
full-rank frames.

Every generator draws from the `random.Random` it is given, so one seed
gives one input set.  The frames are built from isoframe's value types
(`KVector`, `WeightedFrame`); no isoframe computation runs here.
"""

from __future__ import annotations

from fractions import Fraction

from isoframe.frames import WeightedFrame
from isoframe.kscalar import Field, KElement, KVector

import oracles

F = Fraction
FIELDS = {"R": Field.R, "C": Field.C, "H": Field.H}


def kvec(field, entries):
    """Vector from per-entry component tuples, missing components zero."""
    d = field.real_dimension
    return KVector(field, tuple(
        KElement(field, tuple(F(c) for c in comps) + (F(0),) * (d - len(comps)))
        for comps in entries))


def real2_rational_p4():
    vecs = [kvec(Field.R, [(a,), (b,)]) for a, b in ((1, 0), (0, 1), (1, 1), (1, -1))]
    return WeightedFrame(Field.R, 2, 4, vecs, (F(2, 3), F(2, 3), F(1, 6), F(1, 6)))


def synthetic_frame():
    """Five rational directions whose quartic forms are a basis of
    Phi_R(2,4); the positive weights are the unique solution."""
    dirs = ((1, 0), (0, 1), (1, 1), (1, -2), (2, -1))
    vecs = [kvec(Field.R, [(a,), (b,)]) for a, b in dirs]
    return WeightedFrame(Field.R, 2, 4, vecs,
                         (F(1, 2), F(1, 2), F(5, 27), F(1, 54), F(1, 54)))


def mub_c2_p4():
    """The three mutually unbiased bases of C^2: (1,0), (0,1), (1,+-1),
    (1,+-i) with weights 1/2, 1/2, 1/8 x 4; a projective 2-design."""
    entries = [[(1,), (0,)], [(0,), (1,)], [(1,), (1,)], [(1,), (-1,)],
               [(1,), (0, 1)], [(1,), (0, -1)]]
    vecs = [kvec(Field.C, e) for e in entries]
    return WeightedFrame(Field.C, 2, 4, vecs, (F(1, 2), F(1, 2)) + (F(1, 8),) * 4)


def design_h2_p4():
    """(1,0), (0,1), (1,+-1), (1,+-i), (1,+-j), (1,+-k) over H^2 with
    weights 1/3, 1/3, 1/12 x 8; a projective 2-design."""
    entries = [[(1,), (0,)], [(0,), (1,)]]
    for unit in range(4):
        for sign in (1, -1):
            comps = [0, 0, 0, 0]
            comps[unit] = sign
            entries.append([(1,), tuple(comps)])
    vecs = [kvec(Field.H, e) for e in entries]
    return WeightedFrame(Field.H, 2, 4, vecs, (F(1, 3), F(1, 3)) + (F(1, 12),) * 8)


def orthonormal_p2(field, m):
    vecs = [kvec(field, [(1,) if i == j else (0,) for j in range(m)]) for i in range(m)]
    return WeightedFrame(field, m, 2, vecs, (F(1),) * m)


DESIGNS = {
    "R2-rational-p4": real2_rational_p4,
    "synthetic": synthetic_frame,
    "C2-mub-p4": mub_c2_p4,
    "H2-design-p4": design_h2_p4,
    "C2-orthonormal-p2": lambda: orthonormal_p2(Field.C, 2),
    "H2-orthonormal-p2": lambda: orthonormal_p2(Field.H, 2),
    "R3-orthonormal-p2": lambda: orthonormal_p2(Field.R, 3),
    "C3-orthonormal-p2": lambda: orthonormal_p2(Field.C, 3),
}


# Magnitudes of the real components of a random vector.  A random vector
# permutes them and draws their signs, so its norm and bit lengths, and with
# them the cost of the jobs built on it, are the same for every seed while
# the vector itself varies.
_MAGNITUDES = (1, 2, 3, 1, 2, 1, 3, 1, 2, 1, 1, 2)


def random_kvector(field, m, rng):
    d = field.real_dimension
    comps = list(_MAGNITUDES[:d * m])
    rng.shuffle(comps)
    comps = [c * rng.choice((1, -1)) for c in comps]
    return kvec(field, [comps[i * d:(i + 1) * d] for i in range(m)])


def reflect(frame, rng):
    """Image of the frame under a seeded rational Householder reflection
    x -> x - v (2 <v,x> / |v|^2), which is K-unitary, so the image verifies
    exactly when the frame does.  v is redrawn until <v,u_k> != 0 for every
    k, so no vector is left in place and every image is equally dense."""
    field, m = frame.field, frame.m
    vecs = [oracles.to_tuples(u) for u in frame.vectors]
    while True:
        v = oracles.to_tuples(random_kvector(field, m, rng))
        products = [oracles.inner(v, u) for u in vecs]
        if all(any(c) for c in products):
            break
    scale = F(2) / oracles.norm_sq(v)
    out = []
    for ut, prod in zip(vecs, products):
        factor = tuple(c * scale for c in prod)
        out.append(kvec(field, [tuple(a - b for a, b in zip(ue, oracles.qmul(ve, factor)))
                                for ue, ve in zip(ut, v)]))
    return WeightedFrame(field, m, frame.p, out, frame.weights)


def union(frames, rng):
    """Union of verified frames with weights scaled by shares 1..t in a
    seeded order, divided by their sum; the union verifies."""
    parts = list(range(1, len(frames) + 1))
    rng.shuffle(parts)
    total = sum(parts)
    vecs, weights = [], []
    for share, frame in zip(parts, frames):
        vecs.extend(frame.vectors)
        weights.extend(w * F(share, total) for w in frame.weights)
    first = frames[0]
    return WeightedFrame(first.field, first.m, first.p, vecs, weights)


def split_weights(frame, count, rng):
    """Split `count` random weights w into copies of the same vector with
    weights w*s and w*(1-s); the frame still verifies and is redundant."""
    vecs, weights = list(frame.vectors), list(frame.weights)
    for k in rng.sample(range(frame.n), count):
        s = F(rng.randint(1, 6), 7)
        vecs.append(vecs[k])
        weights.append(weights[k] * (1 - s))
        weights[k] = weights[k] * s
    return WeightedFrame(frame.field, frame.m, frame.p, vecs, weights)


def phase_twist(frame, rng):
    """Left-multiply coordinate i >= 2 of every vector by a rational unit
    alpha_i != 1 (alpha_1 = 1, so the twist is never a global phase).

    diag(alpha) is unitary and commutes with diag(lambda), so the twisted
    frame verifies and has the same scaling coefficients a_k(lambda)."""
    field, m = frame.field, frame.m
    d = field.real_dimension
    one = (F(1),) + (F(0),) * (d - 1)
    alphas = [one] + [oracles.rational_unit(d, rng) for _ in range(m - 1)]
    out = []
    for u in frame.vectors:
        ut = oracles.to_tuples(u)
        out.append(kvec(field, [oracles.qmul(a, e) for a, e in zip(alphas, ut)]))
    return WeightedFrame(field, m, frame.p, out, frame.weights)


def _direction(u):
    """u scaled on the right so that its first nonzero entry is 1; two
    vectors have proportional forms exactly when their directions agree."""
    entries = oracles.to_tuples(u)
    lead = next(e for e in entries if any(e))
    inv = tuple(c / oracles.norm_sq((lead,)) for c in oracles.conj(lead))
    return tuple(oracles.qmul(e, inv) for e in entries)


def random_frame(field, m, p, n, rng):
    """n random integer vectors in distinct directions, with weights 1/k,
    k = 1..5 in seeded order.  For n <= dim Phi_K(m,p) their forms are
    independent and the frame fails to verify, except on a measure-zero
    set that the job's oracle check rules out after the fact."""
    vecs, seen = [], set()
    while len(vecs) < n:
        u = random_kvector(field, m, rng)
        key = _direction(u)
        if key not in seen:
            seen.add(key)
            vecs.append(u)
    weights = [F(1, 1 + k % 5) for k in range(n)]
    rng.shuffle(weights)
    return WeightedFrame(field, m, p, vecs, weights)


def perturb(frame, rng):
    """The frame with its first weight changed by a factor 1 + 1/q; the
    residual is that change times a nonzero form, so it never verifies."""
    weights = list(frame.weights)
    weights[0] = weights[0] * (1 + F(1, rng.randint(5, 97)))
    return WeightedFrame(frame.field, frame.m, frame.p, frame.vectors, weights)
