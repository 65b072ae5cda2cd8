"""The invariant space Phi_K(m,p): degree-p real forms on K^m fixed by right
multiplication with unit scalars of K.

The projector onto Phi averages f(x alpha) over the unit group, which is the
sphere S^{d-1} in the d real dimensions of K.  Averaging is exact: the
substitution x -> x alpha is linear over the joint ring in the coordinates of
x and alpha, and the alpha-monomials integrate to rational sphere moments.

The unit group acts by isometries of the sphere pairing, so the average A is
the orthogonal projection onto Phi, and <<A x^beta, g>> = <<x^beta, g>> for
every g in Phi.  Over R the unit group is {+-1}, which fixes every even-degree
form: Phi_R holds every form, and its basis is the monomials, with no
averaging.  Over C and H the basis forms are averages A(x^beta), and the Gram
entries of their duals pair the monomial x^beta alone.

Phi also has a point set Y (`_point_set`): dim Phi integer points on which
evaluation is injective on Phi, chosen from the values of the products of
quadratic invariants |<v, x>|^2 (`_invariant_values`).  Every exact
decision of `frames` is made on the values of forms at Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations, combinations_with_replacement
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .forms import (
    Exponent,
    RealForm,
    _bucket_inner,
    _check_arguments,
    _combination,
    _key_digits,
    _moment_denominator,
    _moment_numerator,
    _packed_power,
    _packed_product,
    _parity_buckets,
    _scaled_terms,
    _unpack,
    monomials,
)
from .kscalar import Field, basis_product
from .linalg import RowReducer, SingularMatrixError, _integer_inverse, _pivots_mod_q

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


def _averager(field: Field, m: int,
              degree: int) -> Tuple[Callable[[Exponent], Dict[int, int]], int]:
    """The unit-group average over K^m of a monomial x^beta of the given
    degree, and den = `_moment_denominator(d, degree)`: the average is int
    numerators over den, keyed by the x exponents packed by `forms._pack`
    for twice the degree; zero sums are dropped.

    Under x -> x alpha the real coordinate x_{i,t} becomes a bilinear form
    in the joint variables (alpha_1..alpha_d, x_1..x_{d*m}): the sum over
    basis units c, s with e_c e_s = +-e_t of sign * alpha_s * x_{i,c}.
    The table holds these forms as int terms on packed joint keys for twice
    the degree, alpha's d digits below those of x, and x^beta becomes the
    product of the substituted coordinates.  Integrating alpha over the
    unit sphere turns each alpha monomial into its moment.  Every alpha
    monomial has degree |beta|, so the moments share one denominator and
    only their int numerators are summed.  Each power table[v] ** b and
    each alpha moment is built once per averager.
    """
    d = field.real_dimension
    shifts, mask = _key_digits(d + d * m, 2 * degree)
    table: List[Dict[int, int]] = [{} for _ in range(d * m)]
    for i in range(m):
        for c in range(d):
            for s in range(d):
                t, sign = basis_product(field, c, s)
                table[i * d + t][(1 << shifts[s]) + (1 << shifts[d + i * d + c])] = sign
    low = shifts[d]
    alpha_mask = (1 << low) - 1
    powers: Dict[Tuple[int, int], Mapping[int, int]] = {}
    moments: Dict[int, int] = {}

    def average(beta: Exponent) -> Dict[int, int]:
        factors = []
        for v, b in enumerate(beta):
            if b:
                if (v, b) not in powers:
                    powers[v, b] = _packed_power(table[v], b)
                factors.append(powers[v, b])
        sums: Dict[int, int] = {}
        for key, coeff in reduce(_packed_product, factors).items():
            alpha = key & alpha_mask
            if alpha not in moments:
                moments[alpha] = _moment_numerator(tuple([alpha >> s & mask for s in shifts[:d]]))
            if num := moments[alpha]:
                x = key >> low
                sums[x] = sums.get(x, 0) + coeff * num
        return {x: total for x, total in sums.items() if total}

    return average, _moment_denominator(d, degree)


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
    n, degree = d * m, phi.degree
    average, den = _averager(field, m, degree)
    return RealForm._build(n, degree, _combination(
        (c, _unpack(average(beta), n, 2 * degree, den)) for beta, c in phi.terms.items()))


@dataclass(frozen=True)
class DualBasis:
    """Forms theta_k with <<b_j, theta_k>> = delta_{jk} exactly.

    The integer Gram blocks are the same whether `dual_basis` paired two
    forms per entry or, for a `PhiBasis`, a label monomial against a form.

    `gram` and `gram_inverse`, the Fraction matrices G and G^-1, are built
    on first read from the integer blocks that `dual_basis` kept in
    `_blocks`, and then cached: one (indices, s, g, rows) per block, with
    s_a the scale of form indices[a], g the block's integer Gram matrix and
    rows[a] = (D_k, n_k) its inverse row k = indices[a] over one
    denominator.  G_ij = g_ab / (s_a s_b den) and
    G^-1_kj = den s_a s_b n_kb / D_k, with den the moment denominator; the
    entries outside the blocks are zero.
    """

    forms: Tuple[RealForm, ...]
    duals: Tuple[RealForm, ...]
    _blocks: Tuple[tuple, ...] = dc_field(repr=False, compare=False)

    @cached_property
    def gram(self) -> Tuple[Tuple[Fraction, ...], ...]:
        den, gram = self._blank()
        for indices, scales, g, _ in self._blocks:
            for i, s_i, g_row in zip(indices, scales, g):
                for j, s_j, x in zip(indices, scales, g_row):
                    gram[i][j] = Fraction(x, s_i * s_j * den)
        return tuple(map(tuple, gram))

    @cached_property
    def gram_inverse(self) -> Tuple[Tuple[Fraction, ...], ...]:
        den, inverse = self._blank()
        for indices, scales, _, rows in self._blocks:
            for k, s_k, (row_den, nums) in zip(indices, scales, rows):
                for j, s_j, c in zip(indices, scales, nums):
                    if c:
                        inverse[k][j] = Fraction(den * s_k * s_j * c, row_den)
        return tuple(map(tuple, inverse))

    def _blank(self) -> Tuple[int, List[List[Fraction]]]:
        """The moment denominator of the pairing and a square matrix of zeros."""
        zero, form = Fraction(0), self.forms[0]
        return (_moment_denominator(form.num_vars, 2 * form.degree),
                [[zero] * len(self.forms) for _ in self.forms])


def _parity_blocks(buckets: Sequence[Dict[Exponent, list]]) -> List[List[int]]:
    """The indices of the forms grouped into the connected components of
    "has a parity class in common", each ascending.  Forms in different
    components pair to zero, so the Gram matrix is block-diagonal."""
    blocks: List[Tuple[set, List[int]]] = []
    for i, classes in enumerate(buckets):
        merged = (set(classes), [i])
        for block in [b for b in blocks if not b[0].isdisjoint(classes)]:
            blocks.remove(block)
            merged[0].update(block[0])
            merged[1].extend(block[1])
        blocks.append(merged)
    return [sorted(indices) for _, indices in blocks]


def dual_basis(forms: Sequence[RealForm], *,
               _labels: Optional[Sequence[Exponent]] = None) -> DualBasis:
    """Dual basis under the sphere-integral pairing: theta_k = sum_j G^{-1}_{kj} b_j.

    The forms must be linearly independent and of equal degree; a singular
    Gram matrix is reported as SingularGramError since it certifies
    dependence.  The forms must be exact (a float coefficient raises
    ValueError).

    Each form b_i is scaled once by s_i, the lcm of its denominators, to
    integer terms bucketed by exponent parity.  Two forms with no parity
    class in common pair to zero, so G splits into one block per connected
    component of the shared classes, and only the blocks are summed and
    inverted.  In a block, g_ij = <<s_i b_i, s_j b_j>> times the moment
    denominator den is an int.  `PhiBasis.duals` passes `_labels`, the
    exponents beta_i with b_i = A(x^beta_i) for the projection A onto Phi.
    As <<A x^beta_i, g>> = <<x^beta_i, g>> for g in Phi, each entry then
    pairs the one term s_i x^beta_i with the integer terms c_e x^e of
    s_j b_j, g_ij = s_i sum_e c_e prod (beta_i + e - 1)!!, the same int.
    G = S^-1 g S^-1 / den with S = diag(s_i), and G^-1 = den S g^-1 S.
    Fraction-free Gauss-Jordan elimination
    (`linalg._integer_inverse`) gives g^-1 = rows / d in ints, and row k
    over one denominator is n_kj / D_k, with c_k = gcd(d, row k),
    D_k = |d| / c_k and n_kj = sign(d) rows_kj / c_k.  The dual
    theta_k = (den s_k / D_k) sum_j n_kj s_j b_j is summed in ints over the
    integer terms of s_j b_j (`forms._combination`), and each of its terms
    divided once.  Terms are kept and dropped in the order
    `linear_combination` keeps them, so every dual term is the Fraction
    that the dense Fraction computation gives, in the same order.  The
    blocks, with g, s and the rows (D_k, n_k), are kept in the result,
    whose Fraction `gram` and `gram_inverse` are built from them only when
    first read, equal to the dense Fraction computation entry by entry.
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
    scaled = [_scaled_terms(f) for f in forms]
    buckets = [_parity_buckets(terms) for _, terms in scaled]
    lefts = buckets if _labels is None else [
        _parity_buckets({beta: s}) for beta, (s, _) in zip(_labels, scaled)]
    den = _moment_denominator(n_vars, 2 * degree)
    duals = [None] * len(forms)
    blocks = []
    for block in _parity_blocks(buckets):
        g = [[0] * len(block) for _ in block]
        for a, i in enumerate(block):
            for b in range(a, len(block)):
                g[a][b] = g[b][a] = _bucket_inner(lefts[i], buckets[block[b]])
        try:
            d, rows = _integer_inverse(g)
        except SingularMatrixError as exc:
            raise SingularGramError(
                "Gram matrix is singular: the forms are linearly dependent; "
                "run dependence detection instead") from exc
        scales = [scaled[j][0] for j in block]
        inverse = []
        for k, s_k, row in zip(block, scales, rows):
            common = math.gcd(d, *row) * (-1 if d < 0 else 1)
            row_den, nums = d // common, [x // common for x in row]
            inverse.append((row_den, nums))
            out = _combination(zip(nums, [scaled[j][1] for j in block]))
            factor = den * s_k
            duals[k] = RealForm._build(n_vars, degree, {
                expo: Fraction(factor * total, row_den) for expo, total in out.items()})
        blocks.append((block, scales, g, inverse))
    return DualBasis(forms=forms, duals=tuple(duals), _blocks=tuple(blocks))


@dataclass(frozen=True)
class PhiBasis:
    """Basis of Phi_K(m,p): independent unit-group averages of monomials.

    `labels[i]` is the exponent vector of the monomial whose average is
    `basis[i]`; monomials are scanned in graded-lex order, so the basis choice
    is deterministic.  The duals are computed on first use and cached; each
    of their Gram entries pairs a label monomial with a basis form.
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
        return dual_basis(self.basis, _labels=self.labels).duals


# typed: p = 4.0 must miss the cached key p = 4 and meet the rule of dim_phi
@lru_cache(maxsize=None, typed=True)
def phi_basis(field: Field, m: int, p: int) -> PhiBasis:
    """Compute a deterministic basis of Phi_K(m,p).

    Over R the unit group {+-1} fixes every even-degree form, so the basis
    is the monomials themselves in graded-lex order, each its own average,
    built in closed form with no averaging and no elimination.  Over C and
    H every degree-p monomial in the N real coordinates is averaged; a
    maximal independent subset of the averages is extracted by exact
    elimination, keeping the earliest generating monomials in graded-lex
    order.  A rank other than `dim_phi` raises RuntimeError on both paths.

    The averages share one moment denominator, so the elimination reads
    their int numerators as they stand (`_averager`), and only the dim Phi
    rows kept become Fraction forms.
    """
    dim = dim_phi(field, m, p)
    d = field.real_dimension
    if field is Field.R:
        labels = monomials(m, p)
        basis = [RealForm._build(m, p, {beta: Fraction(1)}) for beta in labels]
    else:
        average, den = _averager(field, m, p)
        reducer = RowReducer()
        labels, basis = [], []
        for beta in monomials(d * m, p):
            row = average(beta)
            if row and reducer.add_row(row) is None:
                labels.append(beta)
                basis.append(RealForm._build(d * m, p, _unpack(row, d * m, 2 * p, den)))
    if len(basis) != dim:
        raise RuntimeError(
            f"averaged monomials have rank {len(basis)} but dim Phi = {dim}; "
            "this contradicts the closed form and indicates a defect")
    return PhiBasis(field=field, m=m, p=p, labels=tuple(labels), basis=tuple(basis))


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


def _invariant_values(field: Field, m: int,
                      points: Sequence[Sequence[int]]) -> Iterator[List[int]]:
    """The int value rows at the points of the quadratic invariants
    |<v, x>|^2, first for v in {e_i}, the |xi_i|^2, then for v in
    {e_i + e_j eps_c : i < j, c < d}, the |xi_i + conj(eps_c) xi_j|^2, whose
    component t adds +-xi_{j,s} to xi_{i,t} for eps_c eps_s = sign eps_t
    (`kscalar.basis_product`), the sign flipped when c > 0.  A point holds
    the d*m real coordinates of x; rows are built only as far as the caller
    pulls."""
    d = field.real_dimension
    for i in range(m):
        yield [sum(a * a for a in x[i * d:i * d + d]) for x in points]
    for i, j in combinations(range(m), 2):
        for c in range(d):
            products = [basis_product(field, c, s) for s in range(d)]
            twist = [(i * d + t, j * d + s, sign if c == 0 else -sign)
                     for s, (t, sign) in enumerate(products)]
            yield [sum((x[a] + g * x[b]) ** 2 for a, b, g in twist) for x in points]


@lru_cache(maxsize=None)
def _point_set(field: Field, m: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """Y, dim Phi integer points on which evaluation is injective on
    Phi_K(m,p), the same in every process: a subset, in order, of the
    lattice X of points (alpha, 1, 0^{d-1}), |alpha| <= p, on the slice
    where the last entry x_m is real, comb(d(m-1)+p, p) points.

    X is unisolvent: if f in Phi vanishes on X, its restriction to the slice
    is a degree-p form in d(m-1)+1 real variables; dehomogenised at
    Re x_m = 1 it vanishes on the principal lattice, which is unisolvent for
    degree <= p, so f is zero on the slice; x g lies on the slice for the
    unit g = conj(x_m)/|x_m| when x_m != 0, and f(x) = f(x g) = 0; so f
    vanishes on a dense set, hence f = 0.  Over R, X has dim Phi points and
    is Y.

    Over C and H, Y is the points of X whose columns keep a pivot modulo
    the prime of `linalg._pivots_mod_q` in the rows of values on X of the
    products of p/2 quadratic invariants of `_invariant_values` (discrete
    Leja points, Bos, De Marchi, Sommariva and Vianello, SIAM J. Numer.
    Anal. 48, 2010, chosen exactly).  The products lie in Phi and span it
    (first fundamental theorem, Weyl, The Classical Groups), so dim Phi
    pivots give a dim Phi x dim Phi minor nonzero modulo the prime, hence
    over Z, and a form in Phi that vanishes on Y is zero.  Any other rank is
    a defect (RuntimeError).  The pivot columns are the leading columns of
    the rows' span modulo the prime, the greedy first independent points of
    X, so Y does not depend on which rows span that space or on their
    order."""
    d = field.real_dimension
    lattice = tuple(e[1:] + (1,) + (0,) * (d - 1) for e in monomials(d * (m - 1) + 1, p))
    if d == 1:
        return lattice
    rows = ([math.prod(column) for column in zip(*chosen)] for chosen in
            combinations_with_replacement(_invariant_values(field, m, lattice), p // 2))
    cols = sorted(col for col in _pivots_mod_q(rows) if col is not None)
    if len(cols) != (dim := dim_phi(field, m, p)):
        raise RuntimeError(f"the invariant products keep {len(cols)} pivots modulo the "
                           f"prime, not dim Phi = {dim}: a defect")
    return tuple(lattice[col] for col in cols)


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
    """Upper bound dim Phi_K(m,p) - 1 on the minimal frame size for m >= 2;
    (m, p) is checked first, by the rule of `dim_phi`."""
    dim = dim_phi(field, m, p)
    if m < 2:
        raise ValueError(
            "upper_bound requires m >= 2: for m = 1 the minimal frame size is 1")
    return dim - 1
