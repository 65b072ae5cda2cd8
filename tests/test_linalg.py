"""Exact rank tracking, dependence certificates, and inversion over Q."""

import math
import random
from fractions import Fraction

import pytest

from isoframe.linalg import (
    RowReducer,
    SingularMatrixError,
    _integer_inverse,
    _over_one_denominator,
    matrix_inverse,
)


def random_matrix(rows, cols, rng, span=5):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def as_row(values):
    return dict(enumerate(values))


def test_row_reducer_reports_rank():
    red = RowReducer()
    assert red.add_row(as_row([Fraction(1), Fraction(0), Fraction(2)])) is None
    assert red.add_row(as_row([Fraction(0), Fraction(1), Fraction(-1)])) is None
    assert red.rank == 2


def test_row_reducer_certificate_combines_to_zero():
    rng = random.Random(31)
    for _ in range(30):
        cols = rng.randint(2, 5)
        rows = random_matrix(rng.randint(2, 6), cols, rng)
        # the same rows keyed by labels instead of positions and inserted in
        # reverse column order: the certificates must not move
        labels = [f"x{rng.randrange(10**6)}-{j}" for j in range(cols)]
        relabelled = [{labels[j]: row[j] for j in reversed(range(cols))} for row in rows]
        certificates = []
        for mappings in ([as_row(row) for row in rows], relabelled):
            red = RowReducer()
            combos = []
            for k, row in enumerate(mappings):
                before = dict(row)
                combo = red.add_row(row)
                assert row == before
                combos.append(combo)
                if combo is None:
                    continue
                assert all(0 <= j < k and c != 0 for j, c in combo.items())
                for col in range(cols):
                    assert rows[k][col] == sum(c * rows[j][col] for j, c in combo.items())
            certificates.append(combos)
        assert certificates[0] == certificates[1]


def test_row_reducer_detects_duplicate_row():
    red = RowReducer()
    row = as_row([Fraction(2), Fraction(3)])
    assert red.add_row(row) is None
    combo = red.add_row(row)
    assert combo == {0: 1}
    # a dependent row never becomes a pivot, so a later certificate has no
    # key for it: the copy of r1 is r1 alone, not r1 plus 0 * (copy of r0)
    r0 = as_row([Fraction(1), Fraction(2), Fraction(0)])
    r1 = as_row([Fraction(0), Fraction(1), Fraction(3)])
    red = RowReducer()
    assert red.add_row(r0) is None and red.add_row(r1) is None
    assert red.add_row(dict(r0)) == {0: 1}
    assert red.add_row(dict(r1)) == {1: 1}


def test_zero_row_certificate_is_trivial():
    red = RowReducer()
    red.add_row(as_row([Fraction(1), Fraction(1)]))
    combo = red.add_row(as_row([Fraction(0), Fraction(0)]))
    assert combo is not None and combo == {}


def test_matrix_inverse_round_trip():
    rng = random.Random(32)
    matrices = []
    for _ in range(20):
        n = rng.randint(1, 5)
        matrices.append(random_matrix(n, n, rng))
    # a permutation and a matrix whose first row starts with zero: neither
    # has its pivots on the diagonal
    permutation = [[Fraction(int(j == (i + 1) % 4)) for j in range(4)] for i in range(4)]
    zero_lead = [[Fraction(0), Fraction(2), Fraction(1)],
                 [Fraction(3), Fraction(1), Fraction(0)],
                 [Fraction(1), Fraction(0), Fraction(-1, 2)]]
    # int, Fraction and float entries mixed, each float read exactly
    mixed = [[0.75, 2, Fraction(1, 3)], [-1.5, Fraction(-2, 7), 0], [3, 0.1, 2.0]]
    for mat in matrices + [permutation, zero_lead, mixed]:
        n = len(mat)
        try:
            inv = matrix_inverse(mat)
        except SingularMatrixError:
            assert mat not in (permutation, zero_lead, mixed)
            continue
        assert all(type(x) is Fraction for row in inv for x in row)
        mat = [[Fraction(x) for x in row] for row in mat]
        for i in range(n):
            for j in range(n):
                acc = sum(mat[i][k] * inv[k][j] for k in range(n))
                assert acc == (1 if i == j else 0)


def test_integer_inverse_scales_to_identity():
    # seeded int matrices with many zeros: zero pivots force row swaps,
    # determinants come with both signs, and some matrices are singular;
    # the kernel raises exactly when a RowReducer finds a dependent row
    rng = random.Random(35)
    seen = {"swap": 0, "negative": 0, "singular": 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        g = [[rng.choice((0, 0, rng.randint(-2**34, 2**34), rng.randint(-3, 3)))
              for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2 and n > 1:
            g[rng.randrange(n)] = [2 * x for x in g[rng.randrange(n)]]
        reducer = RowReducer()
        singular = any(reducer.add_row(as_row(row)) is not None for row in g)
        try:
            d, rows = _integer_inverse(g)
        except SingularMatrixError:
            assert singular
            seen["singular"] += 1
            continue
        assert not singular
        assert all(type(x) is int for row in rows for x in row) and type(d) is int
        for i in range(n):
            for j in range(n):
                assert sum(g[i][k] * rows[k][j] for k in range(n)) == (d if i == j else 0)
        seen["swap"] += g[0][0] == 0
        seen["negative"] += d < 0
    assert min(seen.values()) >= 10, seen


def test_matrix_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        matrix_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    for matrix in ([[Fraction(1), Fraction(2)]], [[Fraction(1)], [Fraction(2)]]):
        with pytest.raises(ValueError, match="not square"):
            matrix_inverse(matrix)



def reference_certificates(rows):
    """Plain Fraction elimination with pivots scaled to 1, as a reference:
    (the certificate or None for each row, the rank)."""
    pivots, out = [], []
    for new, row in enumerate(rows):
        work = {key: Fraction(x) for key, x in row.items() if x}
        combo = {new: Fraction(1)}
        for col, prow, pcombo in pivots:
            factor = work.get(col)
            if factor:
                for key, x in prow.items():
                    work[key] = work.get(key, 0) - factor * x
                work = {key: x for key, x in work.items() if x}
                for j, c in pcombo.items():
                    combo[j] = combo.get(j, 0) - factor * c
        if work:
            lead = next(iter(work))
            inv = 1 / work[lead]
            pivots.append((lead, {key: x * inv for key, x in work.items()},
                           {j: c * inv for j, c in combo.items()}))
            out.append(None)
        else:
            out.append({j: -c for j, c in combo.items() if c and j != new})
    return out, len(pivots)


def sparse_rows(rng, count, cols):
    """Sparse rows with int, rational and dyadic-float entries, with zero,
    repeated and rescaled earlier rows mixed in."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.3 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-4, 4), rng.randint(1, 5)), rng.randint(-3, 3)
            rows.append({key: s * a.get(key, 0) + t * b.get(key, 0) for key in set(a) | set(b)})
        else:
            row = {}
            for key in rng.sample(range(cols), rng.randint(1, min(cols, 4))):
                row[f"c{key}"] = rng.choice((
                    rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                    rng.randint(-64, 64) / 2 ** rng.randint(0, 6)))
            rows.append(row)
    return rows


def test_row_reducer_matches_fraction_reference():
    rng = random.Random(33)
    for _ in range(60):
        rows = sparse_rows(rng, rng.randint(1, 14), rng.randint(1, 8))
        red = RowReducer()
        certificates = [red.add_row(row) for row in rows]
        expected, rank = reference_certificates(rows)
        assert certificates == expected
        assert red.rank == rank
        for cert in certificates:
            assert cert is None or all(type(c) is Fraction for c in cert.values())


def test_matrix_inverse_block_diagonal_round_trip():
    rng = random.Random(34)
    for _ in range(10):
        blocks = [random_matrix(k, k, rng, span=9) for k in (rng.randint(1, 4) for _ in range(3))]
        n = sum(len(b) for b in blocks)
        mat = [[Fraction(0)] * n for _ in range(n)]
        at = 0
        for block in blocks:
            for i, row in enumerate(block):
                mat[at + i][at:at + len(block)] = row
            at += len(block)
        try:
            inv = matrix_inverse(mat)
        except SingularMatrixError:
            continue
        for i in range(n):
            for j in range(n):
                assert sum(mat[i][k] * inv[k][j] for k in range(n)) == (i == j)
        assert matrix_inverse(inv) == mat


def test_over_one_denominator_matches_written_out_reference():
    # L is the lcm of the reduced denominators, found here by a gcd fold, and
    # the L v are ints in the order of the values
    rng = random.Random(43)
    cases = [[], [0], [7], [Fraction(-3, 4)], [1, -2, 3], [0, 0],
             [Fraction(6, 4), -2, Fraction(0, 5), Fraction(-10, 15)]]
    for _ in range(200):
        cases.append([rng.randint(-50, 50) if rng.random() < 0.4
                      else Fraction(rng.randint(-50, 50), rng.randint(1, 40))
                      for _ in range(rng.randint(1, 8))])
    for values in cases:
        common = 1
        for v in values:
            q = Fraction(v).denominator
            common = common * q // math.gcd(common, q)
        scaled = [Fraction(v) * common for v in values]
        assert all(x.denominator == 1 for x in scaled)
        got_common, ints = _over_one_denominator(values)
        assert got_common == common
        assert ints == [x.numerator for x in scaled]
        assert all(type(x) is int for x in ints)
    # all-int values are their own numerators over L = 1
    ints = [rng.randint(-10**30, 10**30) for _ in range(20)]
    assert _over_one_denominator(ints) == (1, ints)
