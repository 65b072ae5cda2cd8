"""The invariant space Phi_K(m,p): degree-p real forms on K^m fixed by right
multiplication with unit scalars of K.

The projector onto Phi averages f(x alpha) over the unit group, which is the
sphere S^{d-1} in the d real dimensions of K.  Averaging is exact: the
substitution x -> x alpha is linear over the joint ring in the coordinates of
x and alpha, and the alpha-monomials integrate to rational sphere moments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Dict, List, Sequence, Tuple

from .forms import (
    Exponent,
    RealForm,
    _bucket_inner,
    _moment_denominator,
    _moment_numerator,
    _parity_buckets,
    linear_combination,
    monomials,
)
from .kscalar import Field, basis_product
from .linalg import RowReducer, SingularMatrixError, matrix_inverse

__all__ = [
    "DualBasis",
    "PhiBasis",
    "SingularGramError",
    "dim_phi",
    "dual_basis",
    "phi_basis",
    "unit_group_average",
    "upper_bound",
]


class SingularGramError(ValueError):
    """Gram matrix of the given forms is singular.

    This happens exactly when the forms are linearly dependent; run
    dependence detection instead of asking for a dual basis.
    """


def _substitution_table(field: Field, m: int) -> List[RealForm]:
    # Under x -> x alpha the real coordinate x_{i,t} becomes a bilinear form in
    # the joint variables (alpha_1..alpha_d, x_1..x_{d*m}): the sum over basis
    # units c, s with e_c e_s = +-e_t of sign * alpha_s * x_{i,c}.  The signs
    # stay ints, so products of these forms run in integer arithmetic.
    d = field.real_dimension
    n_joint = d + d * m
    table: List[Dict[Exponent, int]] = [{} for _ in range(d * m)]
    for i in range(m):
        for c in range(d):
            for s in range(d):
                t, sign = basis_product(field, c, s)
                expo = [0] * n_joint
                expo[s] = 1
                expo[d + i * d + c] = 1
                table[i * d + t][tuple(expo)] = sign
    return [RealForm(n_joint, 2, terms) for terms in table]


def _average_monomial(beta: Exponent, table: List[RealForm], d: int) -> RealForm:
    # x^beta becomes the product of the substituted coordinates; integrating
    # alpha over the unit sphere turns each alpha monomial into its moment.
    # Every alpha monomial has degree |beta|, so the moments share one
    # denominator: the int numerators are summed and divided once per term.
    joint = reduce(operator.mul, (table[v] ** b for v, b in enumerate(beta) if b))
    sums: Dict[Exponent, int] = {}
    for expo, coeff in joint.terms.items():
        num = _moment_numerator(expo[:d])
        if num:
            sums[expo[d:]] = sums.get(expo[d:], 0) + coeff * num
    den = _moment_denominator(d, sum(beta))
    return RealForm._build(joint.num_vars - d, sum(beta),
                           {expo: Fraction(total, den) for expo, total in sums.items() if total})


def unit_group_average(phi: RealForm, field: Field, m: int) -> RealForm:
    """Project a form onto Phi_K(m,p) by exact unit-group averaging.

    The form must live in the N = d*m real coordinates of K^m.  The result
    equals the integral of phi(x alpha) over unit scalars alpha (the two-point
    average for R, the circle for C, the 3-sphere for H).
    """
    d = field.real_dimension
    if phi.num_vars != d * m:
        raise ValueError(
            f"form has {phi.num_vars} variables, expected {d * m} for {field.name}^{m}")
    if phi.is_zero or phi.degree == 0:
        return phi
    table = _substitution_table(field, m)
    averages = [_average_monomial(beta, table, d) for beta in phi.terms]
    return linear_combination(list(phi.terms.values()), averages)


@dataclass(frozen=True)
class DualBasis:
    """Forms theta_k with <<b_j, theta_k>> = delta_{jk} exactly."""

    forms: Tuple[RealForm, ...]
    duals: Tuple[RealForm, ...]
    gram: Tuple[Tuple[Fraction, ...], ...]
    gram_inverse: Tuple[Tuple[Fraction, ...], ...]


def dual_basis(forms: Sequence[RealForm]) -> DualBasis:
    """Dual basis under the sphere-integral pairing: theta_k = sum_j G^{-1}_{kj} b_j.

    The forms must be linearly independent and of equal degree; a singular
    Gram matrix is reported as SingularGramError since it certifies
    dependence.  The forms must be exact (a float coefficient raises
    ValueError).  Each is scaled once to integer terms bucketed by exponent
    parity; each entry of the upper triangle of the symmetric Gram is then
    summed in ints and divided once.
    """
    forms = tuple(forms)
    if not forms:
        raise ValueError("dual basis of an empty family is undefined")
    degree = forms[0].degree
    n_vars = forms[0].num_vars
    for f in forms[1:]:
        if f.degree != degree or f.num_vars != n_vars:
            raise ValueError("dual basis requires forms of equal degree and variable count")
    if not all(f.is_exact for f in forms):
        raise ValueError("dual basis requires exact forms")
    scaled = [_parity_buckets(f) for f in forms]
    den = _moment_denominator(n_vars, 2 * degree)
    gram = [[Fraction(0)] * len(forms) for _ in forms]
    for i, (si, bi) in enumerate(scaled):
        for j in range(i, len(forms)):
            sj, bj = scaled[j]
            gram[i][j] = gram[j][i] = Fraction(_bucket_inner(bi, bj), si * sj * den)
    try:
        inv = matrix_inverse(gram)
    except SingularMatrixError as exc:
        raise SingularGramError(
            "Gram matrix is singular: the forms are linearly dependent; "
            "run dependence detection instead") from exc
    return DualBasis(
        forms=forms,
        duals=tuple(linear_combination(row, forms) for row in inv),
        gram=tuple(tuple(row) for row in gram),
        gram_inverse=tuple(tuple(row) for row in inv),
    )


@dataclass(frozen=True)
class PhiBasis:
    """Basis of Phi_K(m,p): independent unit-group averages of monomials.

    `labels[i]` is the exponent vector of the monomial whose average is
    `basis[i]`; monomials are scanned in graded-lex order, so the basis choice
    is deterministic.  The duals are computed on first use and cached.
    """

    field: Field
    m: int
    p: int
    basis: Tuple[RealForm, ...]
    labels: Tuple[Exponent, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def duals(self) -> Tuple[RealForm, ...]:
        return dual_basis(self.basis).duals


def _check_arguments(m: int, p: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if p < 2 or p % 2:
        raise ValueError(f"p must be a positive even integer, got {p}")


@lru_cache(maxsize=None)
def phi_basis(field: Field, m: int, p: int) -> PhiBasis:
    """Compute a deterministic basis of Phi_K(m,p).

    Every degree-p monomial in the N real coordinates is averaged; a maximal
    independent subset of the averages is extracted by exact elimination,
    keeping the earliest generating monomials in graded-lex order.  A rank
    other than `dim_phi` raises RuntimeError.
    """
    dim = dim_phi(field, m, p)
    d = field.real_dimension
    table = _substitution_table(field, m)
    reducer = RowReducer()
    basis: List[RealForm] = []
    labels: List[Exponent] = []
    for beta in monomials(d * m, p):
        averaged = _average_monomial(beta, table, d)
        if averaged.is_zero:
            continue
        if reducer.add_row(averaged.terms) is None:
            basis.append(averaged)
            labels.append(beta)
    if len(basis) != dim:
        raise RuntimeError(
            f"averaged monomials have rank {len(basis)} but dim Phi = {dim}; "
            "this contradicts the closed form and indicates a defect")
    return PhiBasis(field=field, m=m, p=p, basis=tuple(basis), labels=tuple(labels))


def _dim_factors(field: Field, m: int, p: int) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    """dim Phi_K(m,p) as binomials C(a, b) and a divisor: the product over the divisor."""
    _check_arguments(m, p)
    k = p // 2
    return {Field.R: (((m + p - 1, p),), 1),
            Field.C: (((m + k - 1, k),) * 2, 1),
            Field.H: (((2 * m + k - 1, k), (2 * m + k - 2, k)), k + 1)}[field]


def dim_phi(field: Field, m: int, p: int) -> int:
    """dim Phi_K(m,p) in closed form; no basis is built.

    With k = p/2 the invariants are counted by the first fundamental theorem
    for the unit group (Weyl, The Classical Groups):
        R: C(m+p-1, p), every degree-p form;
        C: C(m+k-1, k)^2, the forms of bidegree (k, k) in z and conj(z);
        H: C(2m+k-1, k) C(2m+k-2, k) / (k+1), the hook-content count of
           the GL(2m) representation of shape (k, k) that the degree-p
           invariants of Sp(1) = SU(2) on 2m copies of C^2 form.
    """
    factors, divisor = _dim_factors(field, m, p)
    return math.prod(math.comb(a, b) for a, b in factors) // divisor


def _dim_too_long_to_print(field: Field, m: int, p: int) -> bool:
    """Whether dim Phi_K(m,p) has more than 4,300 digits, Python's limit for
    printing an int.  A log10 sum over the smaller side of each binomial
    decides; within 1e-6 of 4,300, where it could round wrongly, dim_phi does."""
    factors, divisor = _dim_factors(field, m, p)
    sides = [(a, min(b, a - b)) for a, b in factors]
    if max(b for _, b in sides) > 14_300:  # C(a, b) >= 2^b > 10^4300, and so is dim Phi
        return True
    estimate = sum(math.log10(a - i) - math.log10(i + 1)
                   for a, b in sides for i in range(b)) - math.log10(divisor)
    if abs(estimate - 4300) > 1e-6:
        return estimate > 4300
    return dim_phi(field, m, p) >= 10**4300


def upper_bound(field: Field, m: int, p: int) -> int:
    """Upper bound dim Phi_K(m,p) - 1 on the minimal frame size for m >= 2."""
    if m < 2:
        raise ValueError(
            "upper_bound requires m >= 2: for m = 1 the minimal frame size is 1")
    return dim_phi(field, m, p) - 1
