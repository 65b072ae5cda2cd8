"""Exact rank tracking, dependence certificates, and inversion over Q."""

import random
from fractions import Fraction

import pytest

from isoframe.linalg import RowReducer, SingularMatrixError, matrix_inverse


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
    for mat in matrices + [permutation, zero_lead]:
        n = len(mat)
        try:
            inv = matrix_inverse(mat)
        except SingularMatrixError:
            assert mat not in (permutation, zero_lead)
            continue
        for i in range(n):
            for j in range(n):
                acc = sum(mat[i][k] * inv[k][j] for k in range(n))
                assert acc == (1 if i == j else 0)


def test_matrix_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        matrix_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])

