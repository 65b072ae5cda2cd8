"""Homogeneous polynomials over the real coordinates of K^m, with exact
integration against the uniform probability measure on the unit sphere.

A form is a sparse map from exponent vectors (tuples of length N, entries
summing to the degree) to nonzero rational coefficients.  The real
coordinates of a vector x in K^m are taken entry-major: the first d
coordinates are the components of xi_1, the next d those of xi_2, and so on.

Canonical term order is graded lexicographic: lower degree first, then
descending lexicographic on the exponent vector (so x1^p comes before
x1^{p-1}x2 within a degree).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Dict, Sequence, Tuple

from .kscalar import Field, KVector, Scalar, basis_product

Exponent = Tuple[int, ...]

__all__ = [
    "Exponent",
    "RealForm",
    "abs_inner_sq_form",
    "evaluate",
    "form_inner",
    "frame_form",
    "grlex_key",
    "linear_combination",
    "monomials",
    "norm_power_form",
    "sphere_moment",
]


def grlex_key(expo: Exponent):
    """Sort key for the canonical graded-lex order."""
    return (sum(expo), tuple(-e for e in expo))


def monomials(num_vars: int, degree: int) -> list[Exponent]:
    """All exponent vectors of the given degree, in canonical order."""
    out = []
    for combo in combinations_with_replacement(range(num_vars), degree):
        expo = [0] * num_vars
        for idx in combo:
            expo[idx] += 1
        out.append(tuple(expo))
    return out


@dataclass
class RealForm:
    """Homogeneous polynomial in N real variables with rational coefficients.

    Instances are treated as immutable; no method mutates `terms`.
    """

    num_vars: int
    degree: int
    terms: Dict[Exponent, Scalar] = dc_field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.terms.items():
            expo = tuple(expo)
            if len(expo) != self.num_vars:
                raise ValueError(f"exponent {expo} has {len(expo)} entries, expected {self.num_vars}")
            if sum(expo) != self.degree:
                raise ValueError(f"exponent {expo} has degree {sum(expo)}, expected {self.degree}")
            if coeff != 0:
                clean[expo] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> "RealForm":
        return cls(num_vars, degree, {})

    @classmethod
    def monomial(cls, num_vars: int, expo: Exponent, coeff=1) -> "RealForm":
        expo = tuple(expo)
        c = coeff if isinstance(coeff, float) else Fraction(coeff)
        return cls(num_vars, sum(expo), {expo: c})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "RealForm":
        expo = [0] * num_vars
        expo[index] = 1
        return cls.monomial(num_vars, tuple(expo))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.terms.values())

    def max_abs_coeff(self) -> float:
        """Largest absolute coefficient, as a float (0.0 for the zero form).

        The maximum is taken exactly and converted once, so an exact
        coefficient beyond binary64 raises OverflowError.
        """
        return float(max((abs(c) for c in self.terms.values()), default=0))

    def __add__(self, other: "RealForm") -> "RealForm":
        return linear_combination((1, 1), (self, other))

    def __sub__(self, other: "RealForm") -> "RealForm":
        return linear_combination((1, -1), (self, other))

    def __neg__(self) -> "RealForm":
        return self.scale(-1)

    def scale(self, r) -> "RealForm":
        return linear_combination((r,), (self,))

    def __mul__(self, other) -> "RealForm":
        if not isinstance(other, RealForm):
            return self.scale(other)
        self._check_compatible(other, same_degree=False)
        out: Dict[Exponent, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(operator.add, e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return RealForm(self.num_vars, self.degree + other.degree, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RealForm":
        if exponent < 0:
            raise ValueError("negative powers are not defined for forms")
        if exponent == 0:
            return RealForm.monomial(self.num_vars, (0,) * self.num_vars)
        if exponent == 1:
            return self
        half = self ** (exponent // 2)
        sq = half * half
        return sq * self if exponent % 2 else sq

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        return evaluate(self, point)

    def _check_compatible(self, other: "RealForm", same_degree: bool) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(f"variable count mismatch: {self.num_vars} vs {other.num_vars}")
        if same_degree and self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")


def evaluate(form: RealForm, point: Sequence[Scalar]) -> Scalar:
    """Exact evaluation of a form at a point (length must equal num_vars)."""
    if len(point) != form.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {form.num_vars}")
    total = Fraction(0)
    for expo, coeff in form.terms.items():
        term = coeff
        for x, e in zip(point, expo):
            if e:
                term = term * x**e
        total = total + term
    return total


def linear_combination(coeffs: Sequence[Scalar], forms: Sequence[RealForm]) -> RealForm:
    """sum_k coeffs[k] * forms[k], built in one pass over the terms.

    The forms must share their variable count and degree, and there must be
    at least one.  Each coefficient of the result starts from Fraction(0)
    and adds (term coefficient) * coeffs[k] in the order of `forms`, so
    exact inputs stay Fractions and float sums round exactly as a left fold
    of `+` would.  Terms that cancel are dropped as they cancel.
    """
    first = forms[0]
    out: Dict[Exponent, Scalar] = {}
    for c, form in zip(coeffs, forms):
        first._check_compatible(form, same_degree=True)
        if c == 0:
            continue
        for expo, coeff in form.terms.items():
            value = out.get(expo, Fraction(0)) + coeff * c
            if value:
                out[expo] = value
            else:
                out.pop(expo, None)
    return RealForm(first.num_vars, first.degree, out)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_moment(beta: Sequence[int], num_vars: int) -> Fraction:
    """Normalized moment of x^beta over the unit sphere S^{num_vars - 1}.

    The integral of x^beta against the uniform probability measure: zero
    when any beta_i is odd, otherwise with beta = 2b and a = sum(b),
        prod_i (2 b_i - 1)!!  /  (N (N+2) ... (N+2a-2)).
    """
    if num_vars < 1:
        raise ValueError("sphere dimension must be >= 1")
    beta = tuple(beta)
    if len(beta) != num_vars:
        raise ValueError(f"exponent length {len(beta)} does not match N={num_vars}")
    if any(b % 2 for b in beta):
        return Fraction(0)
    return _even_moment(beta)


@lru_cache(maxsize=None)
def _even_moment(beta: Exponent) -> Fraction:
    num = 1
    a = 0
    for b in beta:
        num *= _double_factorial(b - 1)
        a += b // 2
    den = 1
    for j in range(a):
        den *= len(beta) + 2 * j
    return Fraction(num, den)


def form_inner(f1: RealForm, f2: RealForm) -> Scalar:
    """<<f1, f2>>: exact integral of f1*f2 over the unit sphere."""
    if f1.num_vars != f2.num_vars:
        raise ValueError(f"variable count mismatch: {f1.num_vars} vs {f2.num_vars}")
    total = Fraction(0)
    for e1, c1 in f1.terms.items():
        for e2, c2 in f2.terms.items():
            m = sphere_moment(tuple(a + b for a, b in zip(e1, e2)), f1.num_vars)
            if m:
                total = total + c1 * c2 * m
    return total


def abs_inner_sq_form(u: KVector) -> RealForm:
    """|<u, x>|^2 as a degree-2 form in the d*m real coordinates of x.

    Rejects u = 0 (a zero vector contributes nothing to a frame and never
    appears in one).
    """
    if u.is_zero:
        raise ValueError("zero vector has no frame form")
    fld = u.field
    d = fld.real_dimension
    n_vars = d * u.m
    # Component t of <u,x> is a linear form: sum over entries i and basis
    # units c of [conj(u_i) e_c]_t * x_{i,c}.  With e_s e_c = sign * e_t,
    # component t of conj(u_i) e_c is sign * conj(u_i)_s.
    linear: list[Dict[Exponent, Scalar]] = [dict() for _ in range(d)]
    for i, entry in enumerate(u.entries):
        ubar = (entry.components[0],) + tuple(-a for a in entry.components[1:])
        for c in range(d):
            expo = [0] * n_vars
            expo[i * d + c] = 1
            for s in range(d):
                t, sign = basis_product(fld, s, c)
                linear[t][tuple(expo)] = sign * ubar[s]
    squares = [lin * lin for lin in (RealForm(n_vars, 1, terms) for terms in linear)]
    return linear_combination((1,) * d, squares)


def frame_form(u: KVector, p: int) -> RealForm:
    """|<u, x>|^p as a degree-p form; p must be a positive even integer."""
    if p < 2 or p % 2:
        raise ValueError(f"exponent p must be a positive even integer, got {p}")
    return abs_inner_sq_form(u) ** (p // 2)


def norm_power_form(fld: Field, m: int, p: int) -> RealForm:
    """<x, x>^{p/2} = (sum of all d*m squared real coordinates)^{p/2}."""
    if p < 2 or p % 2:
        raise ValueError(f"exponent p must be a positive even integer, got {p}")
    n_vars = fld.real_dimension * m
    sq = {}
    for j in range(n_vars):
        expo = [0] * n_vars
        expo[j] = 2
        sq[tuple(expo)] = Fraction(1)
    return RealForm(n_vars, 2, sq) ** (p // 2)
