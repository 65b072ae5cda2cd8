"""Exact rational linear algebra: incremental row reduction with tracking of
how each reduced row combines the original input rows, and the matrix inverse
read off its dependence certificates.

Everything here works on plain lists of Fractions.  Columns are whatever
order the caller fixed; pivots are chosen left to right.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

__all__ = ["RowReducer", "SingularMatrixError", "matrix_inverse"]


class SingularMatrixError(ValueError):
    """Raised when an exact inverse hits a singular matrix."""


class RowReducer:
    """Incremental exact Gaussian elimination over the rationals.

    Rows are added one at a time.  Each is reduced against the pivot rows
    collected so far; if a nonzero residue remains it becomes a new pivot row,
    otherwise the row is dependent and `add_row` returns the coefficients
    expressing it as a combination of the previously added rows.

    The combination bookkeeping carries through every elimination step, so
    the returned certificate is exact: row_k = sum_j coeff_j * row_j with
    coeff_k = -1 folded out (see below).
    """

    def __init__(self, width: int):
        self.width = width
        self._pivot_rows: List[List[Fraction]] = []
        self._pivot_cols: List[int] = []
        # _combos[i][j] = coefficient of original row j in pivot row i
        self._combos: List[List[Fraction]] = []
        self._num_added = 0

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    @property
    def num_added(self) -> int:
        return self._num_added

    def add_row(self, row: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """Add a row; return None if independent, else the dependency.

        The dependency is a list c of length num_added (including the new
        row) with c[new] = Fraction(-1) and sum_j c[j] * row_j = 0, i.e. the
        new row equals sum over earlier rows of c[j] * row_j.
        """
        if len(row) != self.width:
            raise ValueError(f"row has {len(row)} entries, expected {self.width}")
        work = [Fraction(x) for x in row]
        combo = [Fraction(0)] * self._num_added + [Fraction(1)]
        for prow, pcombo, pcol in zip(self._pivot_rows, self._combos, self._pivot_cols):
            factor = work[pcol]
            if factor:
                for j in range(self.width):
                    if prow[j]:
                        work[j] -= factor * prow[j]
                for j, c in enumerate(pcombo):
                    if c:
                        combo[j] -= factor * c
        self._num_added += 1
        lead = next((j for j in range(self.width) if work[j]), None)
        if lead is None:
            # work == 0, so new_row = -sum_{j<new} combo[j] * row_j.
            return [-c for c in combo[:-1]] + [Fraction(-1)]
        inv = Fraction(1) / work[lead]
        self._pivot_rows.append([x * inv for x in work])
        self._pivot_cols.append(lead)
        self._combos.append([c * inv for c in combo])
        return None


def matrix_inverse(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square rational matrix.

    The n rows are reduced first; each unit row e_i added after them is
    dependent, and the first n entries of its certificate express e_i in the
    matrix rows, which is row i of the inverse.
    """
    n = len(matrix)
    reducer = RowReducer(n)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        if reducer.add_row(row) is not None:
            raise SingularMatrixError(
                f"matrix is singular (row {i} depends on the rows before it)")
    inverse = []
    for i in range(n):
        unit = [Fraction(0)] * n
        unit[i] = Fraction(1)
        inverse.append(reducer.add_row(unit)[:n])
    return inverse
