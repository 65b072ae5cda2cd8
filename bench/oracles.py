"""Independent oracles for the benchmark's correctness checks.

Nothing here calls isoframe: scalars are plain component tuples with their
own complex and quaternion products, dimensions come from closed forms, and
frame identities and form independence are checked by evaluation at seeded
points.  A check that fails marks the job as failed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

F = Fraction

# Rank is computed modulo this prime: reduction mod q can only lower the
# rank, so full rank mod q proves full rank over Q.
PRIME = (1 << 61) - 1


def closed_form_dim(field: str, m: int, p: int) -> int:
    """dim Phi_K(m,p) with k = p/2: C(m+p-1,p) over R, C(m+k-1,k)^2 over C,
    C(2m+k-1,k) C(2m+k-2,k) / (k+1) over H."""
    k = p // 2
    if field == "R":
        return math.comb(m + p - 1, p)
    if field == "C":
        return math.comb(m + k - 1, k) ** 2
    return math.comb(2 * m + k - 1, k) * math.comb(2 * m + k - 2, k) // (k + 1)


def qmul(a, b):
    """Product of two scalars of R, C or H given as component tuples."""
    if len(a) == 1:
        return (a[0] * b[0],)
    if len(a) == 2:
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def conj(a):
    return (a[0],) + tuple(-c for c in a[1:])


def inner(x, y):
    """sum_i conj(x_i) y_i for vectors given as tuples of component tuples."""
    acc = (F(0),) * len(x[0])
    for xe, ye in zip(x, y):
        acc = tuple(s + t for s, t in zip(acc, qmul(conj(xe), ye)))
    return acc


def norm_sq(x):
    return sum(c * c for e in x for c in e)


def to_tuples(kvector):
    return tuple(tuple(e.components) for e in kvector.entries)


def rational_unit(d, rng):
    """A rational scalar of norm 1 other than 1: -1 over R, otherwise the
    Cayley point at parameters +-1/2 with seeded signs, so its bit length
    does not depend on the seed."""
    if d == 1:
        return (F(-1),)
    ts = [rng.choice((1, -1)) * F(1, 2) for _ in range(d - 1)]
    s = sum(t * t for t in ts)
    return ((1 - s) / (1 + s),) + tuple(2 * t / (1 + s) for t in ts)


class Plain(NamedTuple):
    """A frame as plain data: real dimension d of K, m, p, vectors as
    tuples of component tuples, weights."""

    d: int
    m: int
    p: int
    vectors: tuple
    weights: tuple


def plain(frame) -> Plain:
    return Plain(frame.field.real_dimension, frame.m, frame.p,
                 tuple(to_tuples(u) for u in frame.vectors), tuple(frame.weights))


def parse_plain(text: str) -> Plain:
    """Read a frame file with rational entries, independently of isoframe."""
    obj = json.loads(text)
    vecs = tuple(tuple(tuple(F(c) for c in entry) for entry in vec) for vec in obj["vectors"])
    d = len(vecs[0][0])
    if d != {"R": 1, "C": 2, "H": 4}[obj["field"]]:
        raise ValueError("component count does not match the field")
    return Plain(d, obj["m"], obj["p"], vecs, tuple(F(w) for w in obj["weights"]))


def _random_point(d, m, rng, span=9):
    return tuple(tuple(F(rng.randint(-span, span)) for _ in range(d)) for _ in range(m))


def identity_holds(frame: Plain, rng, points=3, tolerance=None):
    """sum_k w_k |<u_k,x>|^p == |x|^p at `points` seeded points; with a
    tolerance the comparison is relative and in floating point."""
    d, k = frame.d, frame.p // 2
    for _ in range(points):
        x = _random_point(d, frame.m, rng)
        lhs = sum(w * norm_sq((inner(u, x),)) ** k for u, w in zip(frame.vectors, frame.weights))
        rhs = norm_sq(x) ** k
        if tolerance is None:
            if lhs != rhs:
                return False
        elif abs(float(lhs) - float(rhs)) > tolerance * float(rhs):
            return False
    return True


def _rank_mod(rows):
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], PRIME - 2, PRIME)
        prow = [v * inv % PRIME for v in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def _mod(value: Fraction) -> int:
    if value.denominator % PRIME == 0:
        raise ValueError("denominator divisible by the rank prime")
    return value.numerator % PRIME * pow(value.denominator % PRIME, PRIME - 2, PRIME) % PRIME


def independent_by_evaluation(frame: Plain, rng, tries=3):
    """True when the forms |<u_k,x>|^p are certified linearly independent:
    their values at n + 4 seeded integer points have full rank mod PRIME.
    False means no certificate was found, not that they are dependent."""
    d, k = frame.d, frame.p // 2
    for _ in range(tries):
        pts = [_random_point(d, frame.m, rng) for _ in range(len(frame.vectors) + 4)]
        rows = [[_mod(norm_sq((inner(u, x),)) ** k) for x in pts] for u in frame.vectors]
        if _rank_mod(rows) == len(frame.vectors):
            return True
    return False


def sphere_moment(beta, num_vars):
    """Mean of x^beta over the unit sphere S^{N-1}, from the Gamma-function
    ratio prod_i Gamma(beta_i/2 + 1/2) Gamma(N/2) /
    (Gamma(1/2)^N Gamma(N/2 + |beta|/2)), evaluated with rising products of
    halves."""
    if any(b % 2 for b in beta):
        return F(0)
    num = F(1)
    for b in beta:
        for j in range(b // 2):
            num *= F(1, 2) + j
    den = F(1)
    for j in range(sum(beta) // 2):
        den *= F(num_vars, 2) + j
    return num / den


def pairing(f, g):
    """Sphere-integral pairing of two RealForms from their term dicts."""
    total = F(0)
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            total += c1 * c2 * sphere_moment(tuple(a + b for a, b in zip(e1, e2)), f.num_vars)
    return total
