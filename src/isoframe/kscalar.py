"""Exact arithmetic in the real division algebras R, C and H.

Scalars are stored componentwise over arbitrary-precision rationals
(`fractions.Fraction`), with the quaternion components ordered (1, i, j, k).
Scalar multiplication of vectors acts on the right, and the inner product
    <x, y> = sum_i conj(xi_i) * eta_i
is conjugate-linear in the first argument.

Everything here is immutable and pure: values can be shared freely across
threads.  A floating-point mirror mode exists for the numeric parts of the
scaling reduction: every operation accepts float components in place of
Fractions and computes with binary64 arithmetic, same formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[Fraction, float]

__all__ = [
    "Field",
    "KElement",
    "KVector",
    "Scalar",
    "basis_product",
    "cayley_point",
    "inner_product",
    "k_conj",
    "k_mul",
    "k_norm_sq",
    "rational_unit_scalars",
    "scalar_from_str",
    "scalar_to_str",
]


class Field(Enum):
    """One of the three real division algebras; the value is the real dimension."""

    R = 1
    C = 2
    H = 4

    @property
    def real_dimension(self) -> int:
        return self.value

    @classmethod
    def from_tag(cls, tag: str) -> "Field":
        try:
            return cls[tag]
        except KeyError:
            raise ValueError(f"unknown field tag {tag!r}; expected one of R, C, H") from None


# Structure constants e_c * e_s = sign * e_t for the basis (1, i, j, k),
# restricted to the first d units for R and C.
_HAMILTON = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def basis_product(field: Field, c: int, s: int) -> tuple[int, int]:
    """Index and sign of the product of basis units: e_c * e_s = sign * e_t."""
    d = field.real_dimension
    if not (0 <= c < d and 0 <= s < d):
        raise ValueError(f"basis indices ({c}, {s}) out of range for {field.name}")
    return _HAMILTON[(c, s)]


@dataclass(frozen=True)
class KElement:
    """A scalar of K, stored as d real components (real part first)."""

    field: Field
    components: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.field.real_dimension:
            raise ValueError(
                f"{self.field.name} element needs {self.field.real_dimension} "
                f"components, got {len(self.components)}"
            )

    @classmethod
    def from_real(cls, field: Field, value) -> "KElement":
        comps = [_coerce(value)] + [Fraction(0)] * (field.real_dimension - 1)
        return cls(field, tuple(comps))

    @classmethod
    def zero(cls, field: Field) -> "KElement":
        return cls.from_real(field, 0)

    @classmethod
    def one(cls, field: Field) -> "KElement":
        return cls.from_real(field, 1)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.components)

    def __add__(self, other: "KElement") -> "KElement":
        _same_field(self, other)
        return KElement(self.field, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "KElement") -> "KElement":
        _same_field(self, other)
        return KElement(self.field, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "KElement":
        return KElement(self.field, tuple(-a for a in self.components))

    def scale(self, r) -> "KElement":
        """Multiply every component by a real scalar."""
        return KElement(self.field, tuple(c * r for c in self.components))


def _coerce(value) -> Scalar:
    if isinstance(value, float):
        return value
    return Fraction(value)


def _same_field(a: KElement, b: KElement) -> None:
    if a.field is not b.field:
        raise ValueError(f"field mismatch: {a.field.name} vs {b.field.name}")


def k_mul(a: KElement, b: KElement) -> KElement:
    """Exact product in K; noncommutative for H (Hamilton relations)."""
    _same_field(a, b)
    d = a.field.real_dimension
    out = [Fraction(0)] * d
    for c in range(d):
        ac = a.components[c]
        if ac == 0:
            continue
        for s in range(d):
            bs = b.components[s]
            if bs == 0:
                continue
            t, sign = _HAMILTON[(c, s)]
            out[t] = out[t] + (ac * bs if sign > 0 else -(ac * bs))
    return KElement(a.field, tuple(out))


def k_conj(a: KElement) -> KElement:
    """Conjugate: real part kept, imaginary components negated."""
    return KElement(a.field, (a.components[0],) + tuple(-c for c in a.components[1:]))


def k_norm_sq(a: KElement) -> Scalar:
    """|a|^2 as the sum of squared components; equals the real part of conj(a)*a."""
    return sum((c * c for c in a.components), Fraction(0))


@dataclass(frozen=True)
class KVector:
    """A column vector over K^m (right module)."""

    field: Field
    entries: tuple[KElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("vector needs at least one entry")
        for e in self.entries:
            if e.field is not self.field:
                raise ValueError("vector entry field does not match vector field")

    @classmethod
    def from_reals(cls, field: Field, values: Sequence) -> "KVector":
        return cls(field, tuple(KElement.from_real(field, v) for v in values))

    @classmethod
    def canonical(cls, field: Field, m: int, i: int) -> "KVector":
        """The canonical basis vector e_{i+1} of K^m."""
        entries = [KElement.zero(field)] * m
        entries[i] = KElement.one(field)
        return cls(field, tuple(entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for e in self.entries)

    def __add__(self, other: "KVector") -> "KVector":
        if self.field is not other.field or self.m != other.m:
            raise ValueError("vector shape or field mismatch")
        return KVector(self.field, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "KVector") -> "KVector":
        if self.field is not other.field or self.m != other.m:
            raise ValueError("vector shape or field mismatch")
        return KVector(self.field, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale_right(self, alpha: KElement) -> "KVector":
        """x * alpha, entrywise right multiplication."""
        return KVector(self.field, tuple(k_mul(e, alpha) for e in self.entries))

    def scale_real(self, r) -> "KVector":
        return KVector(self.field, tuple(e.scale(r) for e in self.entries))

    def real_coords(self) -> tuple[Scalar, ...]:
        """Flatten to the d*m real coordinates (entry-major, components in order)."""
        out = []
        for e in self.entries:
            out.extend(e.components)
        return tuple(out)

    def norm_sq(self) -> Scalar:
        return sum((k_norm_sq(e) for e in self.entries), Fraction(0))


def inner_product(x: KVector, y: KVector) -> KElement:
    """<x, y> = sum_i conj(xi_i) * eta_i, conjugate-linear in x."""
    if x.field is not y.field:
        raise ValueError(f"field mismatch: {x.field.name} vs {y.field.name}")
    if x.m != y.m:
        raise ValueError(f"dimension mismatch: {x.m} vs {y.m}")
    acc = KElement.zero(x.field)
    for xe, ye in zip(x.entries, y.entries):
        acc = acc + k_mul(k_conj(xe), ye)
    return acc


def cayley_point(params: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Rational point on the unit sphere S^n from n rational parameters.

    Stereographic (Cayley) parametrization: with s = sum t_i^2,
    x_0 = (1-s)/(1+s) and x_i = 2 t_i / (1+s), so sum x^2 = 1 exactly.
    """
    ts = [Fraction(t) for t in params]
    s = sum((t * t for t in ts), Fraction(0))
    denom = 1 + s
    return ((1 - s) / denom,) + tuple(2 * t / denom for t in ts)


def rational_unit_scalars(field: Field, count: int, seed: int = 0) -> tuple[KElement, ...]:
    """Deterministic exact scalars with |alpha| = 1.

    For R these are +-1; for C and H they come from the Cayley parametrization
    of the unit circle / unit 3-sphere at random rational parameters, so the
    squared norm is exactly 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    d = field.real_dimension
    out = []
    for _ in range(count):
        if d == 1:
            out.append(KElement(field, (Fraction(rng.choice((1, -1))),)))
            continue
        params = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(d - 1)]
        out.append(KElement(field, cayley_point(params)))
    return tuple(out)


def scalar_to_str(value: Scalar) -> str:
    """Serialize a real scalar: "num/den" for rationals, repr for floats.

    Float strings always contain a '.' or an exponent marker, which is how
    parsers distinguish the two modes.
    """
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def scalar_from_str(text: str) -> Scalar:
    """Inverse of scalar_to_str; bit-exact for both modes."""
    stripped = text.strip()
    if "_" in stripped:
        raise ValueError(f"digit-group underscore in scalar {text!r}")
    if any(marker in stripped for marker in (".", "e", "E", "inf", "nan")):
        return float(stripped)
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
