"""Exact rational linear algebra: incremental row reduction with tracking of
how each reduced row combines the original input rows, and the matrix inverse
read off its dependence certificates.

A row is a sparse mapping from column key to coefficient; absent keys are
zero.  A form's `terms` dict is a row as it stands, keyed by monomial, and
`matrix_inverse` keys its rows by column index.  Each pivot sits at the
first key of its reduced row.  A dependence certificate has the same sparse
shape, keyed by the index of an earlier row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["RowReducer", "SingularMatrixError", "matrix_inverse"]

Row = Mapping[Hashable, Fraction]


class SingularMatrixError(ValueError):
    """Raised when an exact inverse hits a singular matrix."""


class RowReducer:
    """Incremental exact Gaussian elimination over the rationals.

    Rows are added one at a time.  Each is reduced against the pivot rows
    collected so far; if a nonzero residue remains it becomes a new pivot row,
    otherwise the row is dependent and `add_row` returns its certificate: the
    mapping {j: c_j} over earlier row indices, nonzero c_j only, with
    row = sum_j c_j * row_j.

    The combination bookkeeping carries through every elimination step, so
    the certificate is exact.  Pivot rows are always linearly independent
    input rows, so each certificate, each set of independent rows and each
    inverse is unique, whichever nonzero column a pivot uses.  A dependent
    row never becomes a pivot, so its index is never a key of a later
    certificate.
    """

    def __init__(self):
        # (pivot column, pivot row scaled to 1 there, the combination of
        # original rows giving it: {row index: coefficient})
        self._pivots: List[Tuple[Hashable, Dict[Hashable, Fraction], Dict[int, Fraction]]] = []
        self._num_added = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row: Row) -> Optional[Dict[int, Fraction]]:
        """Add a row; return None if independent, else its certificate.

        The certificate maps the index of each earlier row j to c_j != 0 such
        that row = sum_j c_j * row_j; a zero row gives {}, which is falsy, so
        test the result with `is None`.  The row mapping itself is not
        modified.
        """
        work = {key: Fraction(x) for key, x in row.items() if x}
        new = self._num_added
        combo = {new: Fraction(1)}
        for col, prow, pcombo in self._pivots:
            factor = work.get(col)
            if factor:
                for key, x in prow.items():
                    value = work.get(key, 0) - factor * x
                    if value:
                        work[key] = value
                    else:
                        del work[key]
                for j, c in pcombo.items():
                    combo[j] = combo.get(j, 0) - factor * c
        self._num_added += 1
        if not work:
            # work == 0 = row_new + sum_{j<new} combo[j] * row_j.
            return {j: -c for j, c in combo.items() if c and j != new}
        lead = next(iter(work))
        inv = 1 / work[lead]
        self._pivots.append((lead, {key: x * inv for key, x in work.items()},
                             {j: c * inv for j, c in combo.items() if c}))
        return None


def matrix_inverse(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square rational matrix.

    The n rows are reduced first; each unit row e_i added after them is
    dependent, and its certificate expresses e_i in the matrix rows, which is
    row i of the inverse.  The unit rows never become pivots, so no
    certificate has a key n or above.
    """
    n = len(matrix)
    reducer = RowReducer()
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        if reducer.add_row(dict(enumerate(row))) is not None:
            raise SingularMatrixError(
                f"matrix is singular (row {i} depends on the rows before it)")
    certs = [reducer.add_row({i: Fraction(1)}) for i in range(n)]
    return [[cert.get(j, Fraction(0)) for j in range(n)] for cert in certs]
