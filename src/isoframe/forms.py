"""Homogeneous polynomials over the real coordinates of K^m, with exact
integration against the uniform probability measure on the unit sphere.

A form is a sparse map from exponent vectors (tuples of length N, entries
summing to the degree) to nonzero rational coefficients.  The real
coordinates of a vector x in K^m are taken entry-major: the first d
coordinates are the components of xi_1, the next d those of xi_2, and so on.

Canonical term order is graded lexicographic: lower degree first, then
descending lexicographic on the exponent vector (so x1^p comes before
x1^{p-1}x2 within a degree).

Exact forms are built fraction-free.  The way in is
`linalg._over_one_denominator`, which puts a vector's or a form's rationals
over one denominator as ints; products and sums then run on int
coefficients keyed by the packed ints of `_pack`.  The way out is `_unpack`
given that denominator, which rebuilds each exponent tuple and divides its
int coefficient once, in the same pass.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .kscalar import Field, KVector, Scalar, basis_product
from .linalg import _over_one_denominator

Exponent = Tuple[int, ...]

__all__ = [
    "Exponent",
    "RealForm",
    "evaluate",
    "form_inner",
    "frame_form",
    "linear_combination",
    "monomials",
    "norm_power_form",
    "sphere_moment",
]


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

    `terms` is a read-only view of a private copy, so a form shared by
    frames and caches cannot be changed through it.
    """

    num_vars: int
    degree: int
    terms: Mapping[Exponent, Scalar] = dc_field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.terms.items():
            expo = tuple(expo)
            if len(expo) != self.num_vars:
                raise ValueError(f"exponent {expo} has {len(expo)} entries, expected {self.num_vars}")
            if sum(expo) != self.degree:
                raise ValueError(f"exponent {expo} has degree {sum(expo)}, expected {self.degree}")
            if min(expo, default=0) < 0:
                raise ValueError(f"exponent {expo} has a negative entry")
            if not all(isinstance(e, int) for e in expo):
                raise ValueError(f"exponent {expo} has a non-integer entry")
            if coeff != 0:
                clean[expo] = coeff
        self.terms = MappingProxyType(clean)

    @classmethod
    def _build(cls, num_vars: int, degree: int, terms: Dict[Exponent, Scalar]) -> "RealForm":
        """A form over a term dict that a kernel here has just built: exponent
        tuples of the right length and degree, no zero coefficient.  The dict
        is taken as it is, with no re-validation and no copy."""
        form = object.__new__(cls)
        form.num_vars, form.degree, form.terms = num_vars, degree, MappingProxyType(terms)
        return form

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
        return not any(isinstance(c, float) for c in self.terms.values())

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
        """self * other on keys packed by `_pack` for the product's degree,
        unpacked once at the end; a scalar other scales."""
        if not isinstance(other, RealForm):
            return self.scale(other)
        self._check_compatible(other, same_degree=False)
        n, degree = self.num_vars, self.degree + other.degree
        product = _packed_product(_pack(self.terms, n, degree), _pack(other.terms, n, degree))
        return RealForm._build(n, degree, _unpack(product, n, degree))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RealForm":
        """self ** exponent by the tree half * half, then times self for an
        odd exponent, run on the exponent vectors packed by `_pack` for the
        degree of the power and unpacked once at the end.

        Terms are summed and dropped in the order `__mul__` sums and drops
        them, so float coefficients are the same bit for bit.  Exact squares
        run over the term pairs i <= j only, with cross terms doubled; each
        key first appears at the same pair as in the full product, so the
        term order is the same too.
        """
        if exponent < 0:
            raise ValueError("negative powers are not defined for forms")
        if exponent == 0:
            return RealForm.monomial(self.num_vars, (0,) * self.num_vars)
        if exponent == 1:
            return self
        degree = self.degree * exponent
        power = _packed_power(_pack(self.terms, self.num_vars, degree), exponent)
        return RealForm._build(self.num_vars, degree, _unpack(power, self.num_vars, degree))

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        return evaluate(self, point)

    def _check_compatible(self, other: "RealForm", same_degree: bool) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(f"variable count mismatch: {self.num_vars} vs {other.num_vars}")
        if same_degree and self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")


def _nonzero(terms: dict) -> dict:
    """terms without its zero coefficients, in order; terms itself when none
    cancelled, which is the common case."""
    return terms if all(terms.values()) else {k: c for k, c in terms.items() if c != 0}


def _key_digits(num_vars: int, degree: int) -> Tuple[range, int]:
    """The bit shifts of the num_vars digits of a packed key, and the digit
    mask.  Each exponent is one digit of degree.bit_length() bits (one bit
    for a constant), wide enough for any exponent of a form of that degree,
    so adding two keys of forms whose degrees sum to at most `degree` adds
    their exponent vectors with no carry."""
    width = degree.bit_length() or 1
    return range(0, width * num_vars, width), (1 << width) - 1


def _pack(terms: Mapping[Exponent, Scalar], num_vars: int, degree: int) -> Dict[int, Scalar]:
    """terms keyed by one int per exponent vector, for products up to `degree`."""
    units = [1 << s for s in _key_digits(num_vars, degree)[0]]
    return {sum(map(operator.mul, expo, units)): c for expo, c in terms.items()}


def _unpack(packed: Mapping[int, Scalar], num_vars: int, degree: int,
            den: Optional[int] = None) -> Dict[Exponent, Scalar]:
    """The inverse of `_pack`, in the same term order.  With den, the packed
    coefficients are ints and each int c comes back as Fraction(c, den) in
    the same pass: the one way packed int terms become a Fraction form."""
    shifts, mask = _key_digits(num_vars, degree)
    if den is None:
        return {tuple([key >> s & mask for s in shifts]): c for key, c in packed.items()}
    return {tuple([key >> s & mask for s in shifts]): Fraction(c, den) for key, c in packed.items()}


def _packed_product(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> Dict[int, Scalar]:
    out: Dict[int, Scalar] = {}
    get = out.get
    pairs = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in pairs:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return _nonzero(out)


def _packed_square(a: Mapping[int, Scalar]) -> Dict[int, Scalar]:
    """a * a over the term pairs i <= j, cross terms doubled, for exact
    coefficients.  The first pair (i, j) of the full product that reaches a
    key has i <= j, so keys first appear in the order `_packed_product(a, a)`
    gives them, and the exact sums are equal."""
    out: Dict[int, Scalar] = {}
    get = out.get
    pairs = list(a.items())
    for i, (k1, c1) in enumerate(pairs):
        key = k1 + k1
        out[key] = get(key, 0) + c1 * c1
        twice = 2 * c1
        for k2, c2 in pairs[i + 1:]:
            key = k1 + k2
            out[key] = get(key, 0) + twice * c2
    return _nonzero(out)


def _packed_power(base: Mapping[int, Scalar], exponent: int) -> Mapping[int, Scalar]:
    if exponent == 1:
        return base
    half = _packed_power(base, exponent // 2)
    # float sums keep the order of the full product, and so their bits
    if any(isinstance(c, float) for c in half.values()):
        sq = _packed_product(half, half)
    else:
        sq = _packed_square(half)
    return _packed_product(sq, base) if exponent % 2 else sq


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
    """sum_k coeffs[k] * forms[k] by `_combination`.

    There must be at least one form and one coefficient per form, and the
    forms must share their variable count and degree; otherwise ValueError.
    """
    if not forms or len(coeffs) != len(forms):
        raise ValueError(f"{len(coeffs)} coefficients for {len(forms)} forms")
    first = forms[0]
    for form in forms:
        first._check_compatible(form, same_degree=True)
    return RealForm._build(first.num_vars, first.degree,
                           _combination(zip(coeffs, [form.terms for form in forms])))


def _combination(pairs: Iterable[Tuple[Scalar, Mapping]]) -> Dict:
    """sum_k c_k * P_k over pairs (c_k, P_k) of a scalar and a term mapping,
    keyed by exponent tuples or packed ints.  Each coefficient starts from
    int 0 and adds c_k * (term coefficient) in pair order, so ints stay ints,
    Fractions stay Fractions, float sums round as a left fold of `+` does,
    and cancelled terms are dropped.  So int numerators c_k over a common
    denominator L give the Fraction combination's terms over L, in order."""
    out: Dict = {}
    get, pop = out.get, out.pop
    for c, terms in pairs:
        if c:
            for key, v in terms.items():
                if value := get(key, 0) + c * v:
                    out[key] = value
                else:
                    pop(key, None)
    return out


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
    A negative or non-integer exponent raises ValueError.
    """
    if num_vars < 1:
        raise ValueError("sphere dimension must be >= 1")
    beta = tuple(beta)
    if len(beta) != num_vars:
        raise ValueError(f"exponent length {len(beta)} does not match N={num_vars}")
    if min(beta, default=0) < 0:
        raise ValueError(f"exponent {beta} has a negative entry")
    if not all(isinstance(b, int) for b in beta):
        raise ValueError(f"exponent {beta} has a non-integer entry")
    return Fraction(_moment_numerator(beta), _moment_denominator(num_vars, sum(beta)))


# The moment of an even x^beta splits into an int numerator prod_i
# (beta_i - 1)!! and a denominator N (N+2) ... (N+|beta|-2) that depends only
# on N and |beta|, so a sum of moments of one degree is summed in ints and
# divided once.


@lru_cache(maxsize=None)
def _moment_numerator(beta: Exponent) -> int:
    """prod_i (beta_i - 1)!!, or 0 when some beta_i is odd (a zero moment)."""
    num = 1
    for b in beta:
        if b % 2:
            return 0
        num *= _double_factorial(b - 1)
    return num


@lru_cache(maxsize=None)
def _moment_denominator(num_vars: int, degree: int) -> int:
    return math.prod(range(num_vars, num_vars + degree, 2))


def _scaled_terms(form: RealForm) -> Tuple[int, Dict[Exponent, int]]:
    """s, the lcm of an exact form's denominators, and the integer terms of
    s * form in the form's term order."""
    s, nums = _over_one_denominator(list(form.terms.values()))
    return s, dict(zip(form.terms, nums))


def _parity_buckets(terms: Mapping[Exponent, int]) -> Dict[Exponent, List[Tuple[Exponent, int]]]:
    """The terms bucketed by the parity class of their exponents."""
    buckets: Dict[Exponent, List[Tuple[Exponent, int]]] = {}
    for term in terms.items():
        buckets.setdefault(tuple([x & 1 for x in term[0]]), []).append(term)
    return buckets


def _bucket_inner(b1, b2) -> int:
    """sum of c1 c2 prod (e1 + e2 - 1)!! over the equal-parity term pairs."""
    total = 0
    for parity, terms1 in b1.items():
        terms2 = b2.get(parity)
        if terms2:
            for e1, c1 in terms1:
                for e2, c2 in terms2:
                    total += c1 * c2 * _moment_numerator(tuple(map(operator.add, e1, e2)))
    return total


def form_inner(f1: RealForm, f2: RealForm) -> Fraction:
    """<<f1, f2>>: exact sphere integral of f1*f2, paired in ints over s1 s2
    times the moment denominator; only equal-parity term pairs count.  The
    forms must be exact: a float coefficient raises ValueError."""
    if f1.num_vars != f2.num_vars:
        raise ValueError(f"variable count mismatch: {f1.num_vars} vs {f2.num_vars}")
    if not (f1.is_exact and f2.is_exact):
        raise ValueError("form_inner pairs exact forms only")
    (s1, t1), (s2, t2) = _scaled_terms(f1), _scaled_terms(f2)
    den = _moment_denominator(f1.num_vars, f1.degree + f2.degree)
    return Fraction(_bucket_inner(_parity_buckets(t1), _parity_buckets(t2)), s1 * s2 * den)


def _scaled_linear_forms(u: KVector) -> Tuple[int, List[List[Scalar]]]:
    """s and the d components of <s u, x> as coefficient rows over x's d*m
    real coordinates: s the lcm of exact u's denominators and int rows, or
    s = 1 and u's floats.  Row t, column (i, c) is [conj(u_i) e_c]_t, which
    is sign * conj(u_i)_a for e_a e_c = sign * e_t.
    """
    d = u.field.real_dimension
    s, comps = _over_one_denominator(u.real_coords()) if u.is_exact else (1, u.real_coords())
    linear = [[0] * (d * u.m) for _ in range(d)]
    for j, bar in enumerate(comps):
        i, a = divmod(j, d)
        for c in range(d):
            t, sign = basis_product(u.field, a, c)
            linear[t][i * d + c] += sign * (-bar if a else bar)
    return s, linear


def _packed_frame_form(s: int, linear: List[List[Scalar]],
                       p: int) -> Tuple[int, Dict[int, Scalar]]:
    """s and the terms of |<s u, x>|^p keyed by `_pack` for degree p, in a
    dict of the caller's own, from `_scaled_linear_forms(u)`: s the lcm of
    an exact u's denominators and int coefficients, or s = 1 and float
    coefficients for a float u.  No cache keeps it: `frame_form` unpacks it
    and a residual sums it in, each as it is built."""
    n = len(linear[0])
    squares = [lin * lin for lin in (RealForm._build(n, 1, {
        (0,) * j + (1,) + (0,) * (n - j - 1): c for j, c in enumerate(row) if c})
        for row in linear)]
    base = linear_combination((1,) * len(linear), squares)
    return s, _packed_power(_pack(base.terms, n, p), p // 2)


def frame_form(u: KVector, p: int) -> RealForm:
    """|<u, x>|^p as a degree-p form; p must be a positive even integer.

    An exact u is expanded over the integers as |<s u, x>|^p, s the lcm of
    its denominators, and each coefficient is divided by s^p once.  Rejects
    u = 0, which contributes nothing to a frame and never appears in one.
    """
    if p < 2 or p % 2:
        raise ValueError(f"exponent p must be a positive even integer, got {p}")
    if u.is_zero:
        raise ValueError("zero vector has no frame form")
    s, packed = _packed_frame_form(*_scaled_linear_forms(u), p)
    n = u.field.real_dimension * u.m
    return RealForm._build(n, p, _unpack(packed, n, p, s**p if u.is_exact else None))


@lru_cache(maxsize=None)
def _packed_norm_power(num_vars: int, p: int) -> Mapping[int, int]:
    """(sum of the num_vars squared coordinates)^{p/2} with int coefficients,
    keyed by `_pack` for degree p, in a read-only mapping."""
    sq = {(0,) * j + (2,) + (0,) * (num_vars - j - 1): 1 for j in range(num_vars)}
    return MappingProxyType(_packed_power(_pack(sq, num_vars, p), p // 2))


def norm_power_form(fld: Field, m: int, p: int) -> RealForm:
    """<x, x>^{p/2} = (sum of all d*m squared real coordinates)^{p/2}."""
    if p < 2 or p % 2:
        raise ValueError(f"exponent p must be a positive even integer, got {p}")
    n = fld.real_dimension * m
    return RealForm._build(n, p, _unpack(_packed_norm_power(n, p), n, p, 1))
