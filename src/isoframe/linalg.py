"""Exact rational linear algebra: incremental row reduction with tracking of
how each reduced row combines the original input rows, and the matrix
inverse by fraction-free Gauss-Jordan elimination.

A row is a sparse mapping from column key to a rational coefficient (int,
Fraction or float, read exactly); absent keys are zero.  A form's `terms`
mapping is a row as it stands, keyed by monomial.  Elimination runs
fraction-free over the integers; only certificates are built as Fractions.
Each pivot sits at the first key of its reduced row.  A dependence
certificate has the same sparse shape, keyed by the index of an earlier row.

The inverse of a dense square int matrix g is `_integer_inverse`: the
integer-preserving Gauss-Jordan elimination of [g | I] (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968), which gives g^-1 as rows of ints over
one denominator with exact integer divisions.  `matrix_inverse` is its
Fraction view.

`_over_one_denominator` is the one way exact data goes into ints: it puts
rationals over their lcm denominator L as the ints L v.  The elimination
here, the form pairing and the frame expansions of `forms`, and the
certificates and scaling forms of `frames` all call it; the way back from
packed int terms to a Fraction form is `forms._unpack`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["RowReducer", "SingularMatrixError", "matrix_inverse"]

Row = Mapping[Hashable, Fraction]


def _over_one_denominator(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """L, the lcm of the denominators of the rationals values (ints and
    Fractions), and the ints L v, in order: the one way exact data is put
    over one denominator."""
    common = math.lcm(*(v.denominator for v in values))
    return common, [v.numerator * (common // v.denominator) for v in values]


class SingularMatrixError(ValueError):
    """Raised when an exact inverse hits a singular matrix."""


class RowReducer:
    """Incremental exact Gaussian elimination over the rationals, run
    fraction-free in integers.

    Rows are added one at a time.  Each is reduced against the pivot rows
    collected so far; if a nonzero residue remains it becomes a new pivot row,
    otherwise the row is dependent and `add_row` returns its certificate: the
    mapping {j: c_j} over earlier row indices, nonzero c_j only, with
    row = sum_j c_j * row_j.

    Input row j is scaled once by sigma_j, the lcm of its denominators, to
    integer entries; a row of `int` entries only has sigma_j = 1 and is read
    as it stands.  A pivot is kept as a primitive integer row together with
    the integer combination of the scaled input rows that gives it; a step
    cross-multiplies by the two leading entries and then removes the joint gcd
    of row and combination.  From 0 = sum_j combo_j sigma_j row_j a dependent
    row reads c_j = -combo_j sigma_j / (combo_new sigma_new), one Fraction per
    entry.

    Pivot rows are always linearly independent input rows, so each
    certificate and each set of independent rows is unique, whichever
    nonzero column a pivot uses.  A dependent row never becomes a
    pivot, so `add_row` never names its index in a later certificate; a
    caller that rewrites certificates through relations of its own (as a
    chain in `frames` does, which may drop a pivot row and keep a dependent
    one) may name that index there.
    """

    def __init__(self):
        # (pivot column, primitive pivot row with a positive entry there, the
        # combination of scaled original rows giving it: {row index: int})
        self._pivots: List[Tuple[Hashable, Dict[Hashable, int], Dict[int, int]]] = []
        self._scales: List[int] = []  # sigma_j of each input row

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def added(self) -> int:
        """The number of rows added so far: the index of the next row."""
        return len(self._scales)

    def copy(self) -> "RowReducer":
        """A reducer holding the same rows, to which rows can be added
        without changing this one.  It shares the pivot rows and their
        combinations, which are never changed once made."""
        other = type(self)()
        other._pivots, other._scales = list(self._pivots), list(self._scales)
        return other

    def add_row(self, row: Row) -> Optional[Dict[int, Fraction]]:
        """Add a row; return None if independent, else its certificate.

        The certificate maps the index of each earlier row j to c_j != 0 such
        that row = sum_j c_j * row_j; a zero row gives {}, which is falsy, so
        test the result with `is None`.  The row mapping itself is not
        modified.
        """
        if all(type(x) is int for x in row.values()):
            scale, work = 1, {key: x for key, x in row.items() if x}
        else:
            exact = {key: x if isinstance(x, (int, Fraction)) else Fraction(x)
                     for key, x in row.items() if x}
            scale, nums = _over_one_denominator(list(exact.values()))
            work = dict(zip(exact, nums))
        new = len(self._scales)
        self._scales.append(scale)
        combo = {new: 1}
        for col, prow, pcombo in self._pivots:
            factor = work.get(col)
            if not factor:
                continue
            lead = prow[col]
            g = math.gcd(lead, factor)
            lead //= g
            factor //= g
            if lead != 1:
                work = {key: lead * x for key, x in work.items()}
                combo = {j: lead * c for j, c in combo.items()}
            for key, x in prow.items():
                value = work.get(key, 0) - factor * x
                if value:
                    work[key] = value
                else:
                    del work[key]
            for j, c in pcombo.items():
                combo[j] = combo.get(j, 0) - factor * c
            g = math.gcd(*work.values(), *combo.values())
            if g != 1:
                work = {key: x // g for key, x in work.items()}
                combo = {j: c // g for j, c in combo.items()}
        if not work:
            # 0 = sum_j combo[j] * sigma_j * row_j, with combo[new] != 0.
            den = combo[new] * scale
            return {j: Fraction(-c * self._scales[j], den)
                    for j, c in combo.items() if c and j != new}
        lead = next(iter(work))
        sign = -1 if work[lead] < 0 else 1
        self._pivots.append((lead, {key: sign * x for key, x in work.items()},
                             {j: sign * c for j, c in combo.items() if c}))
        return None


def _integer_inverse(matrix: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """(d, rows) with matrix^-1 = rows / d, for a square int matrix.

    Step k makes column k a pivot column.  When its entry in row k is zero,
    row k is swapped with the first later row that has a nonzero entry
    there; when there is none, column k depends on the columns before it
    and the matrix is singular (SingularMatrixError).  With p_k the pivot
    and p_(-1) = 1, every other row i of [matrix | I] becomes
    (p_k row_i - a_ik row_k) / p_(k-1), an exact division, since every
    entry is then a minor of [matrix | I] (Sylvester's identity).

    The elimination runs in place, n entries per row.  Once column k is a
    pivot column it holds p_k in row k and zeros elsewhere, and until then
    the column of I under the original index of row k holds p_(k-1) in
    row k and zeros elsewhere; so step k stores that column of I where
    column k stood and leaves both columns of known entries unstored.  At
    the end the left block is d I, with d the last pivot (det(matrix) up to
    sign), every stored column is a column of d matrix^-1, and the columns
    are put back in the order of I.
    """
    n = len(matrix)
    rows = [list(row) for row in matrix]
    order = list(range(n))  # order[k]: the index in matrix of the row now at k
    prev = 1
    for k in range(n):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                raise SingularMatrixError(
                    f"matrix is singular (column {k} depends on the columns before it)")
            rows[k], rows[swap] = rows[swap], rows[k]
            order[k], order[swap] = order[swap], order[k]
        pivot_row = rows[k]
        pivot, pivot_row[k] = pivot_row[k], prev
        for i, row in enumerate(rows):
            if i != k:
                factor, row[k] = row[k], 0
                rows[i] = [(pivot * x - factor * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    where = sorted(range(n), key=order.__getitem__)
    return prev, [[row[j] for j in where] for row in rows]


def matrix_inverse(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square rational matrix, as lists of Fractions.

    Entries are int, Fraction or float, each float read exactly.  A matrix
    that is not square raises ValueError before any work, and a singular
    one SingularMatrixError.  Row i is scaled by sigma_i, the lcm of its
    denominators, to ints, and with S = diag(sigma_i) the inverse of the
    matrix S^-1 g is g^-1 S: entry (k, j) is rows_kj sigma_j / d, from
    `_integer_inverse(g)`.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    scaled = [_over_one_denominator([x if isinstance(x, (int, Fraction)) else Fraction(x)
                                     for x in row]) for row in matrix]
    d, rows = _integer_inverse([ints for _, ints in scaled])
    return [[Fraction(x * s, d) for x, (s, _) in zip(row, scaled)] for row in rows]
