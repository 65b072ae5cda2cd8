"""Weighted frames of isometric embeddings from the Euclidean space over K
into an l_p space, and the two reduction procedures.

A weighted frame is a system of nonzero vectors u_k in K^m with positive
weights w_k.  It verifies when

    sum_k w_k |<u_k, x>|^p  =  <x, x>^{p/2}

holds identically; both sides are degree-p forms in the d*m real coordinates
of x, so verification is an exact polynomial zero test.  The weighted
representation keeps everything rational: folding a weight into its vector
needs a p-th root, which is a separate lossy export (`to_unweighted`).

An exact frame decides on one representation: the integers
V_k = |<s_k u_k, x>|^p (s_k the lcm of u_k's denominators) at the dim Phi
points Y of `_point_set`, on which evaluation is injective on Phi_K(m,p).
Every frame form, <x, x>^{p/2}, the residual and the norm slices of the
scaling reduction lie in Phi, so an identity among them holds exactly when
it holds on Y.  No frame keeps its expansions |<s_k u_k, x>|^p: only a
residual that is read, and the float checks that read it, build them, one
vector at a time, each summed into the residual as it is built.

Reductions:
  * dependence/reduce_once drops vectors along an exact linear dependence of
    the weighted frame forms, read from their values on Y, rescaling the
    surviving weights by 1 - omega_k.
  * scaling_reduce searches the coordinate cone for a parameter point mu where
    the smallest expansion coefficient a_k(mu) vanishes, then rescales the
    coordinates by diag(mu_i^{1/2}) and drops the vanishing vector.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations
from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .forms import (
    Exponent,
    RealForm,
    _combination,
    _packed_frame_form,
    _packed_norm_power,
    _scaled_linear_forms,
    _unpack,
    frame_form,
    monomials,
)
from .kscalar import (
    Field,
    KElement,
    KVector,
    Scalar,
    _coerce,
    basis_product,
    scalar_from_str,
    scalar_to_str,
)
from .linalg import RowReducer, _over_one_denominator
from .phi import dim_phi

__all__ = [
    "BudgetExhaustedError",
    "CertificateError",
    "DependenceCertificate",
    "DependentFormsError",
    "FrameError",
    "FrameParseError",
    "ScalingExpansionError",
    "ScalingForms",
    "UnverifiedFrameError",
    "VerifyResult",
    "WeightedFrame",
    "catalog",
    "dependence",
    "load_frame",
    "parse_frame",
    "reduce_once",
    "reduce_to_independent",
    "save_frame",
    "scaling_coefficients",
    "scaling_reduce",
    "serialize_frame",
    "to_unweighted",
    "verify",
]

_PROOF_PRIME = (1 << 62) - 57  # the modulus of the proof pass and of `_point_set`'s pivots


class FrameError(ValueError):
    """Base class for frame-level failures."""


class FrameParseError(FrameError):
    """Frame file or text does not parse into a valid frame."""


class UnverifiedFrameError(FrameError):
    """Operation requires a frame that satisfies the defining identity."""


class DependentFormsError(FrameError):
    """Frame forms are linearly dependent; run reduce_to_independent first."""


class CertificateError(FrameError):
    """Dependence certificate does not match the frame."""


class ScalingExpansionError(FrameError):
    """The diagonal target form does not lie in the span of the frame forms."""


class BudgetExhaustedError(FrameError):
    """Bisection budget ran out before reaching the requested tolerance."""


@dataclass(frozen=True)
class WeightedFrame:
    """Vectors u_k in K^m with positive weights w_k, for a fixed even p."""

    field: Field
    m: int
    p: int
    vectors: Tuple[KVector, ...]
    weights: Tuple[Scalar, ...]

    # The elimination (reducer, ids, records) that settled the last step of
    # a chain, as `reduce_once` hands it on, its ids those of this frame's
    # rows 0..k-1; None starts afresh.
    _carried = None

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        object.__setattr__(self, "weights", tuple(_coerce(w) for w in self.weights))
        if self.m < 1:
            raise FrameError(f"m must be >= 1, got {self.m}")
        if self.p < 2 or self.p % 2:
            raise FrameError(f"p must be a positive even integer, got {self.p}")
        if not self.vectors:
            raise FrameError("a frame needs at least one vector")
        if len(self.weights) != len(self.vectors):
            raise FrameError(
                f"{len(self.vectors)} vectors but {len(self.weights)} weights")
        for k, u in enumerate(self.vectors):
            if u.field is not self.field:
                raise FrameError(f"vector {k} lives over {u.field.name}, frame over {self.field.name}")
            if u.m != self.m:
                raise FrameError(f"vector {k} has {u.m} entries, expected {self.m}")
            if u.is_zero:
                raise FrameError(f"vector {k} is zero; zero vectors never occur in a frame")
        for k, w in enumerate(self.weights):
            if not w > 0:
                raise FrameError(f"weight {k} is {w}; weights must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.vectors)

    @cached_property
    def is_exact(self) -> bool:
        return all(u.is_exact for u in self.vectors) and all(
            isinstance(w, Fraction) for w in self.weights)

    @cached_property
    def _linear_forms(self) -> Tuple[Tuple[int, List[List[Scalar]]], ...]:
        """`_scaled_linear_forms` of each u_k, built on first use: s_k and the
        d coefficient rows of <s_k u_k, x>, which the values, the refutation
        at x0, the proof pass of `_first_dependence` and the expansions all
        read."""
        return tuple(_scaled_linear_forms(u) for u in self.vectors)

    @cached_property
    def _weight_numerators(self) -> Tuple[int, List[int]]:
        """L, the lcm of the denominators of the w_k / s_k^p of an exact
        frame, and the ints L w_k / s_k^p, which the exact verdict and the
        residual sum both read."""
        return _over_one_denominator([w / s**self.p for w, (s, _) in
                                      zip(self.weights, self._linear_forms)])

    @cached_property
    def _residual(self) -> RealForm:
        """sum_k w_k |<u_k, x>|^p - <x, x>^{p/2}, built on first use, one
        vector's expansion at a time: each `_packed_frame_form` (s_k and the
        terms of |<s_k u_k, x>|^p on packed keys) is summed in as it is
        built and then dropped, so no frame keeps its expansions, and the
        memory of the sum does not grow with n.

        An exact frame sums them with the ints L w_k / s_k^p of
        `_weight_numerators`, and the packed norm power with -L, on the
        packed keys; only the terms that survive are unpacked, each divided
        by L once.  `forms._combination` keeps and drops the int terms where
        it would keep and drop the Fraction terms, so the result equals the
        Fraction combination of the unpacked forms term for term.  A float
        frame sums them with the w_k, an exact u's divided by s^p as
        `frame_form` divides it, and unpacks once; a sum with no binary64
        value, an exact term too large for a float added to a float one,
        raises the FrameError of `_residual_max`."""
        p, num_vars = self.p, self.field.real_dimension * self.m
        expansions = (_packed_frame_form(s, linear, p) for s, linear in self._linear_forms)
        if self.is_exact:
            common, numerators = self._weight_numerators
            out = _combination(chain(((c, power) for c, (_, power) in zip(numerators, expansions)),
                                     [(-common, _packed_norm_power(num_vars, p))]))
            return RealForm._build(num_vars, p, _unpack(out, num_vars, p, common))
        pairs = ((w, {key: Fraction(c, s**p) for key, c in power.items()} if u.is_exact else power)
                 for w, u, (s, power) in zip(self.weights, self.vectors, expansions))
        try:
            # Fraction(-1) keeps the norm power's terms Fractions (norm_power_form)
            out = _combination(chain(pairs, [(Fraction(-1), _packed_norm_power(num_vars, p))]))
        except OverflowError:
            raise FrameError(_OVERFLOW) from None
        return RealForm._build(num_vars, p, _unpack(out, num_vars, p))

    @cached_property
    def _values(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """`_scaled_values` of each exact u_k at the points Y of `_point_set`:
        the one input of every exact decision on this frame."""
        points = _point_set(self.field, self.m, self.p)
        return tuple(_scaled_values(s, linear, self.p, points) for s, linear in self._linear_forms)

    @cached_property
    def _first_dependence(self) -> Optional[Tuple[DependenceCertificate, int, tuple]]:
        """The dependence decision of `dependence`, made once per frame: None
        when the forms are independent, else the certificate of the first
        row k of `_values` that depends on the rows before it, k, and the
        elimination that settled it, which `reduce_once` hands on.

        The proof pass: for n <= dim Phi and no carried elimination, V_k at
        n + 4 fixed points (`_proof_points`) that keep a pivot in every row
        modulo _PROOF_PRIME give a minor nonzero over Z: None.  It runs even
        when `_values` are already built, as a passing `verify` leaves them:
        it is far cheaper than a full elimination on them.

        The elimination: an elimination is (reducer, ids, records): a
        `RowReducer` over full rows of `_values`, each row under the index it
        got there (its id); the ids of rows 0..k; and the records
        (j, den, {i: num}), earliest first, each saying that the dropped row
        of id j is sum_i num_i / den * row_i over rows alive when it was
        dropped, so that no record names an id an earlier one removed.  One
        elimination runs: it carries on from `_carried`, on a copy, so that
        this frame's elimination stays its own, or else starts afresh.  It
        adds the rows after the carried ones until one is dependent, and
        that row's certificate, rewritten through the records into ints c
        with sum_{i<=k} c_i V_i = 0 and c_k < 0, is exact: `_point_set` is
        unisolvent for Phi, so a dependence among the value rows is one
        among the forms, unique up to scale since rows 0..k-1 are
        independent, and the certificate is the one a fresh frame gives,
        whichever elimination the frame carries.  It gives
        omega_i = c_i s_i^p / w_i, scaled to max 1.

        The guard: an elimination that finds every row independent checks
        the rank bound n <= dim Phi (RuntimeError); the proof pass already
        implies it."""
        dim = dim_phi(self.field, self.m, self.p)
        if self.n <= dim and self._carried is None:
            points = _proof_points(self.n + 4, self.field.real_dimension * self.m)
            values = (_scaled_values(s, linear, self.p, points)[1]
                      for s, linear in self._linear_forms)
            if None not in _pivots_mod_q([v % _PROOF_PRIME for v in row] for row in values):
                return None
        reducer, ids, records = self._carried or (RowReducer(), (), ())
        reducer, ids = reducer.copy(), list(ids)
        for k in range(len(ids), self.n):
            ids.append(reducer.added)
            if (cert := reducer.add_row(dict(enumerate(self._values[k][1])))) is not None:
                break
        else:
            if self.n > dim:
                raise RuntimeError(f"{self.n} independent forms exceed dim Phi = {dim}: a defect")
            return None
        combo = [c * s**self.p / w for c, (s, _), w in
                 zip(_rewritten(cert, records, ids), self._values, self.weights)]
        peak = max(combo)
        omega = tuple(c / peak for c in combo) + (Fraction(0),) * (self.n - k - 1)
        return (DependenceCertificate(omega=omega, pivot=omega.index(Fraction(1))), k,
                (reducer, tuple(ids), records))

    def _kept(self, keep: Sequence[int], weights: Tuple[Fraction, ...],
              carried) -> WeightedFrame:
        """The exact frame of this exact frame's vectors at the indices keep,
        with the given positive Fraction weights and carried elimination,
        built with no `__post_init__` pass: the vectors are this frame's
        validated objects, so their field, length and nonzero checks hold,
        and their linear forms and values are this frame's too."""
        out = object.__new__(WeightedFrame)
        vars(out).update(field=self.field, m=self.m, p=self.p,
                         vectors=tuple(self.vectors[k] for k in keep), weights=weights,
                         is_exact=True,
                         _linear_forms=tuple(self._linear_forms[k] for k in keep),
                         _values=tuple(self._values[k] for k in keep), _carried=carried)
        return out

    @cached_property
    def _scaling_forms(self) -> ScalingForms:
        """`scaling_coefficients` of this frame, computed on first use; a
        call that raises stores nothing."""
        return _expand_scaling(self)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of the identity check on `frame`, with the residual form for
    diagnostics.  `residual` is the frame's own, built on first read and
    kept with the frame, so a verdict that is never asked for its residual
    expands nothing that it did not need."""

    passed: bool
    frame: WeightedFrame

    @property
    def residual(self) -> RealForm:
        return self.frame._residual

    @property
    def max_residual(self) -> float:
        """Largest absolute residual coefficient as a float; FrameError when
        it has no finite binary64 value."""
        return _residual_max(self.residual)


_OVERFLOW = ("the residual overflows binary64: a frame entry is too large "
             "for a floating-point check at this p")


def _residual_max(residual: RealForm) -> float:
    # A float coefficient that overflowed to inf or nan, or an exact one too
    # large to convert, leaves no binary64 maximum to report or compare.
    try:
        peak = residual.max_abs_coeff()
    except OverflowError:
        peak = math.inf
    floats = [c for c in residual.terms.values() if isinstance(c, float)]
    if math.isfinite(peak) and all(math.isfinite(c) for c in floats):
        return peak
    raise FrameError(_OVERFLOW)


def verify(frame: WeightedFrame, tolerance: Optional[float] = None) -> VerifyResult:
    """Check sum_k w_k |<u_k,x>|^p = <x,x>^{p/2}.

    With tolerance None the test is exact (the residual must be the zero
    form); otherwise the largest absolute residual coefficient is compared
    against the tolerance, which is the only meaningful test for frames with
    floating-point entries.  A residual coefficient beyond binary64 (a float
    that overflowed to inf or nan, or an exact one too large to convert)
    compares with no tolerance and raises FrameError.  A tolerance that is
    negative, nan or infinite raises ValueError before any work.

    The exact test of an exact frame expands no form.  It compares
    sum_k (L w_k / s_k^p) V_k(y) with L |y|^p in ints, V_k(y) =
    |<s_k u_k, y>|^p, first at one integer point x0, the first of
    `_proof_points`, which refutes most failing frames at once, then at
    every point y of Y (`WeightedFrame._values`).  The residual lies in
    Phi and Y is unisolvent for Phi, so it is the zero form exactly when
    it vanishes on Y.  Any other test reads the residual.  The result
    reads the frame's residual, built at most once per frame, only when
    asked for it.
    """
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if tolerance is not None:
        passed = _residual_max(frame._residual) <= tolerance
    elif frame.is_exact:
        x0 = _proof_points(1, frame.field.real_dimension * frame.m)
        at_x0 = [_scaled_values(s, linear, frame.p, x0)[1] for s, linear in frame._linear_forms]
        passed = not (_refuted_at(frame, x0, at_x0) or _refuted_at(
            frame, _point_set(frame.field, frame.m, frame.p), [v for _, v in frame._values]))
    else:
        passed = frame._residual.is_zero
    return VerifyResult(passed=passed, frame=frame)


def _refuted_at(frame: WeightedFrame, points: Sequence[Sequence[int]],
                rows: Sequence[Sequence[int]]) -> bool:
    """Whether sum_k (L w_k / s_k^p) rows[k][i] != L |y_i|^p at some point
    y_i, summed in ints, rows[k] holding V_k at the points: a proof that
    the exact frame's residual is not the zero form."""
    common, numerators = frame._weight_numerators
    return any(sum(c * row[i] for c, row in zip(numerators, rows))
               != common * sum(x * x for x in y) ** (frame.p // 2) for i, y in enumerate(points))


@dataclass(frozen=True)
class DependenceCertificate:
    """Exact dependence sum_k omega_k w_k |<u_k,x>|^p = 0, max_k omega_k = 1."""

    omega: Tuple[Fraction, ...]
    pivot: int


@lru_cache(maxsize=None)
def _proof_points(count: int, num_vars: int) -> Tuple[Tuple[int, ...], ...]:
    """count points of num_vars successive draws of random.Random(0) in
    [-999, 999]: fixed integer points with no zero pattern for a structured
    frame to vanish on, as a sparse point such as e_1 has."""
    rng = random.Random(0)
    return tuple(tuple(rng.randint(-999, 999) for _ in range(num_vars)) for _ in range(count))


def _scaled_values(s: int, linear: List[List[int]], p: int,
                   points: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """s and the integers |<s u, x>|^p at the points, from `_scaled_linear_forms(u)`:
    each of the d linear rows is evaluated at every point, then each point's
    sum of squares is raised to the power p/2."""
    dots = [[sum(map(operator.mul, lin, pt)) for pt in points] for lin in linear]
    return s, tuple(sum(x * x for x in column) ** (p // 2) for column in zip(*dots))


def _pivots_mod_q(rows):
    """Reduce rows mod _PROOF_PRIME in turn, yielding each pivot column or
    None.  The echelon holds (column, inverse of the pivot, row reduced mod
    the prime) per pivot.  A row is updated unreduced, each factor read mod
    the prime from its unreduced entry, and reduced once at the end; rows
    are read only as far as the caller pulls."""
    reduced = []
    for row in rows:
        for col, inv, prow in reduced:
            if f := row[col] * inv % _PROOF_PRIME:
                row = [a - f * b for a, b in zip(row, prow)]
        row = [a % _PROOF_PRIME for a in row]
        col = next((j for j, v in enumerate(row) if v), None)
        if col is not None:
            reduced.append((col, pow(row[col], -1, _PROOF_PRIME), row))
        yield col


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
    _PROOF_PRIME in the rows of values on X of the products of p/2
    quadratic invariants |<v, x>|^2, v in {e_i} and
    {e_i + e_j eps_c : i < j, c < d} (discrete Leja points, Bos, De Marchi,
    Sommariva and Vianello, SIAM J. Numer. Anal. 48, 2010, chosen
    exactly).  The products lie in Phi and span it (first fundamental
    theorem, Weyl, The Classical Groups), so dim Phi pivots give a
    dim Phi x dim Phi minor nonzero modulo the prime, hence over Z, and a
    form in Phi that vanishes on Y is zero.  Any other rank is a defect
    (RuntimeError).  The pivot columns are the leading columns of the rows'
    span modulo the prime, the greedy first independent points of X, so Y
    does not depend on which rows span that space or on their order.

    The invariant values are ints at each point of X: |xi_i|^2 and
    |xi_i + conj(eps_c) xi_j|^2 = |<e_i + e_j eps_c, x>|^2, whose
    component t adds +-xi_{j,s} to xi_{i,t} for eps_c eps_s = sign eps_t
    (`kscalar.basis_product`), the sign flipped when c > 0."""
    d = field.real_dimension
    lattice = tuple(e[1:] + (1,) + (0,) * (d - 1) for e in monomials(d * (m - 1) + 1, p))
    if d == 1:
        return lattice
    squares = [[sum(a * a for a in x[i * d:i * d + d]) for x in lattice] for i in range(m)]
    for i, j in combinations(range(m), 2):
        for c in range(d):
            products = [basis_product(field, c, s) for s in range(d)]
            twist = [(i * d + t, j * d + s, sign if c == 0 else -sign)
                     for s, (t, sign) in enumerate(products)]
            squares.append([sum((x[a] + g * x[b]) ** 2 for a, b, g in twist) for x in lattice])
    rows = ([math.prod(column) for column in zip(*chosen)]
            for chosen in combinations_with_replacement(squares, p // 2))
    cols = sorted(col for col in _pivots_mod_q(rows) if col is not None)
    if len(cols) != (dim := dim_phi(field, m, p)):
        raise RuntimeError(f"the invariant products keep {len(cols)} pivots modulo the "
                           f"prime, not dim Phi = {dim}: a defect")
    return tuple(lattice[col] for col in cols)


def _vanishes(coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> bool:
    """Whether sum_k coeffs[k] * rows[k] = 0, for ints coeffs and rows."""
    pairs = [(c, row) for c, row in zip(coeffs, rows) if c]
    return not any(sum(c * row[i] for c, row in pairs) for i in range(len(rows[0])))


def _rewritten(cert: Mapping[int, Fraction], records, ids: Sequence[int]) -> List[int]:
    """The certificate row_k = sum_j c_j row_j over reducer ids, with each
    dropped id replaced through its record, earliest first, as ints
    c'_0 .. c'_k over the rows of ids (the last of which is row k), in
    lowest terms, with c'_k = -den < 0 and sum_i c'_i row_i = 0."""
    den, nums = _over_one_denominator(list(cert.values()))
    combo = dict(zip(cert, nums))
    for j, rden, relation in records:
        if c := combo.pop(j, 0):
            combo = {i: x * rden for i, x in combo.items()}
            for i, r in relation.items():
                combo[i] = combo.get(i, 0) + c * r
            den *= rden
            if (g := math.gcd(den, *combo.values())) != 1:
                den, combo = den // g, {i: x // g for i, x in combo.items()}
    row_of = {i: k for k, i in enumerate(ids)}
    out = [0] * len(row_of)
    for i, x in combo.items():
        out[row_of[i]] = x
    out[-1] = -den
    return out


def dependence(frame: WeightedFrame) -> Optional[DependenceCertificate]:
    """First linear dependence among the weighted frame forms, or None.

    Reads no form, only V_k = |<s_k u_k, x>|^p (s_k the lcm of u_k's
    denominators) at fixed integer points: at n + 4 points for a proof of
    independence, else on Y, the dim Phi points of `_point_set`, unisolvent
    for Phi.  The certificate omega satisfies
    sum_k omega_k w_k |<u_k, x>|^p = 0 exactly, with max omega = 1,
    omega_k < 0 at the first dependent row k and omega_i = 0 past it; it is
    unique, the one a fresh frame gives, whichever elimination the frame
    carries along a chain.  A frame decides once
    (`WeightedFrame._first_dependence`, where the proof pass, the exact
    elimination and the rank guard are described): asking it again returns
    the same answer at no cost.
    """
    if not frame.is_exact:
        raise FrameError("dependence detection requires exact rational entries")
    found = frame._first_dependence
    return None if found is None else found[0]


def reduce_once(frame: WeightedFrame, cert: DependenceCertificate) -> WeightedFrame:
    """Drop the omega = 1 vectors and rescale the rest by 1 - omega_k.

    This is the weighted, fully rational form of replacing u_k with
    u_k (1-omega_k)^{1/p}: the output verifies exactly when the input does,
    and is strictly smaller.  Checked on values: sum_k a_k V_k = 0 with
    a_k = w_k omega_k / s_k^p, put over one denominator on the support of
    omega; an omega entry that is not an int or a Fraction raises
    CertificateError, and so does one that would drop every vector.

    The output is built from the input's validated parts, with no
    re-validation (`WeightedFrame._kept`): the kept vectors are the same
    objects, with their linear forms and values, and a kept weight is
    w_k (1 - omega_k), or w_k itself where omega_k = 0.  It stays positive:
    a kept omega_k is not 1 and max omega = 1, so omega_k < 1.  When omega
    drops exactly one vector j and the elimination that settled the input's
    dependence stopped at k = max{i : omega_i != 0}, the output carries
    that elimination (reducer, ids, records) on: omega_j != 0, so
    rows {0..k} minus j span what rows 0..k-1 span, the pivots span the
    output's rows 0..k-1, and its next dependent row is its first.  For
    j != k the elimination keeps the record
    row_j = -sum_{i!=j} a_i / a_j row_i; row k keeps its id.  A step that
    drops several vectors can shrink the span, so its output starts afresh.
    """
    omega = cert.omega
    if len(omega) != frame.n:
        raise CertificateError(
            f"certificate has {len(omega)} entries for a frame of size {frame.n}")
    if not all(isinstance(om, (int, Fraction)) for om in omega):
        raise CertificateError("certificate entries must be ints or Fractions")
    if max(omega) != 1:
        raise CertificateError("certificate must be normalized to max omega = 1")
    if not frame.is_exact:
        raise FrameError("reduce_once requires exact rational entries")
    values, weights = frame._values, frame.weights
    support = [k for k, om in enumerate(omega) if om]
    # {k: L a_k}, the ints of a_k = w_k omega_k / s_k^p on the support
    a = dict(zip(support, _over_one_denominator(
        [weights[k] * omega[k] / values[k][0] ** frame.p for k in support])[1]))
    if not _vanishes(list(a.values()), [values[k][1] for k in a]):
        raise CertificateError("certificate residual identity fails for this frame")
    keep = [k for k, om in enumerate(omega) if om != 1]
    rescaled = tuple(weights[k] * (1 - omega[k]) if omega[k] else weights[k] for k in keep)
    # a Fraction carries its sign in its numerator
    if not keep or not all(w.numerator > 0 for w in rescaled):
        raise CertificateError("certificate must keep a vector, each with a positive weight")
    carried = None
    found = vars(frame).get("_first_dependence")
    if len(keep) == frame.n - 1 and found and support[-1] == found[1]:
        _, k, (reducer, ids, records) = found
        j = omega.index(1)
        if j != k:
            g = math.gcd(*a.values())
            records += ((ids[j], a[j] // g, {ids[i]: -x // g for i, x in a.items() if i != j}),)
        carried = (reducer, ids[:j] + ids[j + 1:], records)
    return frame._kept(keep, rescaled, carried)


def reduce_to_independent(frame: WeightedFrame) -> WeightedFrame:
    """Iterate dependence/reduce_once until the frame forms are independent.

    Terminates in at most n steps since each reduction is strictly smaller.
    """
    while (cert := dependence(frame)) is not None:
        frame = reduce_once(frame, cert)
    return frame


@dataclass(frozen=True)
class ScalingForms:
    """Expansion coefficients a_k as exact forms of degree p/2 in lambda.

    They satisfy sum_k a_k(lambda) |<u_k,x>|^p = (sum_i lambda_i |xi_i|^2)^{p/2}
    identically, so a_k(1,...,1) = w_k.

    The forms must be exact and share one variable count and degree, and
    lambda must be exact (ints and Fractions); anything else raises
    ValueError.  With lambda = n / D (D the lcm of its denominators) and S
    the lcm of every coefficient's denominator, each
    N_k = sum_nu S a_{k,nu} n^nu is an integer and a_k(lambda) =
    N_k / (S D^{p/2}), so all a_k share one positive denominator and a_hat
    is one Fraction.
    """

    coefficients: Tuple[RealForm, ...]

    def __post_init__(self):
        if len({(a.num_vars, a.degree) for a in self.coefficients}) != 1:
            raise ValueError("scaling forms must share one variable count and degree")
        if not all(a.is_exact for a in self.coefficients):
            raise ValueError("scaling forms must be exact")

    @cached_property
    def _integer_rows(self) -> Tuple[int, Tuple[Exponent, ...], Tuple[tuple, ...]]:
        """S, the exponents nu that occur, and per form the pairs (index of
        nu, S a_{k,nu}) in ints."""
        scale, nums = _over_one_denominator([c for a in self.coefficients
                                             for c in a.terms.values()])
        nums = iter(nums)
        index: Dict[Exponent, int] = {}
        rows = tuple(tuple((index.setdefault(nu, len(index)), next(nums)) for nu in a.terms)
                     for a in self.coefficients)
        return scale, tuple(index), rows

    def _numerators(self, lam: Sequence[Scalar]) -> Tuple[List[int], int]:
        """The N_k and their common denominator S D^{p/2} at lambda."""
        first = self.coefficients[0]
        if len(lam) != first.num_vars:
            raise ValueError(f"point has {len(lam)} coordinates, expected {first.num_vars}")
        if all(type(x) is int for x in lam):
            # the integer vectors of the scaling search: D = 1
            n, den = lam, 1
        elif all(isinstance(x, (int, Fraction)) for x in lam):
            den, n = _over_one_denominator(lam)
        else:
            raise ValueError("scaling forms are evaluated at exact points only")
        scale, nus, rows = self._integer_rows
        values = [math.prod(map(pow, n, nu)) for nu in nus]
        return [sum(c * values[j] for j, c in row) for row in rows], scale * den**first.degree

    def evaluate(self, lam: Sequence[Scalar]) -> List[Fraction]:
        nums, den = self._numerators(lam)
        return [Fraction(v, den) for v in nums]

    def a_hat(self, lam: Sequence[Scalar]) -> Fraction:
        """min_k a_k(lambda), the quantity whose zero crossing drives the reduction."""
        nums, den = self._numerators(lam)
        return Fraction(min(nums), den)


def scaling_coefficients(frame: WeightedFrame) -> ScalingForms:
    """Expand the lambda-weighted norm power in the frame-form basis.

    Writes F_lambda = (sum_i lambda_i |xi_i|^2)^{p/2} as
    sum_k a_k(lambda) |<u_k,x>|^p.  By the multinomial theorem,
    F_lambda = sum_nu lambda^nu C_nu(x) with C_nu = (p/2; nu) prod_i
    |xi_i|^{2 nu_i}; each slice C_nu is reduced against the frame forms, and
    its dependence certificate gives the coefficients of lambda^nu in the
    a_k.  Every form is read as its values on Y (`_point_set`): the rows
    are V_k = s_k^p f_k on Y, and C_nu's row is its ints on Y.  A
    certificate c' with C_nu = sum_k c'_k V_k on Y gives
    a_{k,nu} = c'_k s_k^p.  C_nu and the f_k lie in Phi, on which
    evaluation on Y is injective, so the certificate is one among the
    forms, unique since the f_k are independent, and the identity holds in
    (lambda, x); frames whose span misses a slice are rejected.

    The result is kept with the frame, so a later call on the same frame
    object, such as the one inside `scaling_reduce`, returns it at once.
    Errors are raised afresh on every call.
    """
    return frame._scaling_forms


def _expand_scaling(frame: WeightedFrame) -> ScalingForms:
    """The work of `scaling_coefficients`, run once per frame object: the
    checks run in order (exact, verified, independent, in the span), each
    on the frame's values on Y."""
    if not frame.is_exact:
        raise FrameError("scaling coefficients require exact rational entries")
    if not verify(frame).passed:
        raise UnverifiedFrameError(
            "scaling coefficients are defined for verified frames only")
    m, p, d = frame.m, frame.p, frame.field.real_dimension
    reducer = RowReducer()
    for _, values in frame._values:
        if reducer.add_row(dict(enumerate(values))) is not None:
            raise DependentFormsError(
                "frame forms are linearly dependent; run reduce_to_independent first")
    half = p // 2
    # |xi_i(y)|^2, the sum of the squares of xi_i's d real coordinates, at each y of Y
    squares = [[sum(x * x for x in y[d * i:d * i + d]) for i in range(m)]
               for y in _point_set(frame.field, m, p)]
    terms: List[Dict[Exponent, Fraction]] = [{} for _ in range(frame.n)]
    for nu in monomials(m, half):
        weight = math.factorial(half) // math.prod(math.factorial(e) for e in nu)
        cert = reducer.add_row({j: weight * math.prod(map(pow, row, nu))
                                for j, row in enumerate(squares)})
        if cert is None:
            raise ScalingExpansionError(
                "diagonal target is not in the span of the frame forms; "
                "the expansion identity has no solution for this frame")
        for k, c in cert.items():
            terms[k][nu] = c * frame._values[k][0] ** p
    coefficients = [RealForm(m, half, t) for t in terms]
    return ScalingForms(coefficients=tuple(coefficients))


MAX_GRID_NODES = 100_000  # cap on comb(grid, m - 1), the simplex nodes scaling_reduce evaluates
BISECTION_BUDGET = 200  # cap on the bisection steps of scaling_reduce


def scaling_reduce(
    frame: WeightedFrame,
    grid: Optional[int] = None,
    tolerance: float = 1e-9,
) -> Optional[WeightedFrame]:
    """Diagonal-scaling reduction: drop a vector where the smallest a_k vanishes.

    Searches the simplex grid (all a_k are homogeneous, so their signs on the
    open cone are determined on the simplex) for gamma with
    a_hat(gamma) = min_k a_k(gamma) < 0, refining between nodes of opposite
    sign.  If found, bisects from (1,...,1) toward gamma until
    0 <= a_hat(mu) <= tolerance, every step exact over Q; BISECTION_BUDGET
    caps the bisection steps, and exhaustion raises BudgetExhaustedError.
    Returns the frame with vectors diag(mu_i^{1/2})^{-1} u_k and weights
    a_k(mu), dropping every k with a_k(mu) <= tolerance; the result is rebuilt
    exactly when all mu_i are squares of rationals and in floating point
    otherwise, and re-verified either way.  Returns None when the sampled
    cone shows no negative a_hat: no reduction found (which certifies
    nothing).  The tolerance must be finite and positive; it and the grid
    are checked before the frame is verified or expanded.

    The search runs on integer vectors.  a_hat is homogeneous of degree
    p/2, so scaling every point by one positive factor scales every value
    by one positive factor and keeps each sign and comparison.  The grid
    node m c / S (S = grid + 1) is kept as 2c, so each refinement midpoint
    is an integer vector too; the bisection keeps both ends as integer
    numerators over one denominator, which doubles at each step, and builds
    mu as Fractions once at the end.  The coefficients come from
    `scaling_coefficients`, so a frame whose coefficients were computed
    before is neither verified nor expanded again.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    m, half = frame.m, frame.p // 2
    if grid is None:
        grid = 33 if m == 2 else 9 if m == 3 else max(5, m - 1)
    if grid < max(1, m - 1):
        raise ValueError(f"grid must be >= {max(1, m - 1)} for m = {m}, got {grid}")
    if comb(grid, m - 1) > MAX_GRID_NODES:
        raise ValueError(f"grid {grid} gives more than {MAX_GRID_NODES} nodes for m = {m}")
    tol = Fraction(tolerance)
    sf = scaling_coefficients(frame)

    # The interior nodes m * (c_1, ..., c_m) / S, integers c_i >= 1 summing
    # to S = grid + 1, each kept as 2c: every a_hat is scaled by (2S/m)^{p/2}.
    s = grid + 1
    nodes = []
    for cuts in combinations(range(2, 2 * s, 2), m - 1):
        bounds = (0,) + cuts + (2 * s,)
        nodes.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    values = {node: sf.a_hat(node) for node in nodes}
    # Refine between neighboring nodes of opposite sign: a neighbor moves one
    # unit of 1/S mass (2 in the integer vectors) from coordinate i to
    # coordinate j.  Each such pair has exactly one negative node, so pairs
    # are taken from the negative side.
    for u in nodes:
        if values[u] >= 0:
            continue
        for i, j in permutations(range(m), 2):
            v = list(u)
            v[i] -= 2
            v[j] += 2
            v = tuple(v)
            if v in values and values[v] >= 0:
                mid = tuple((a + b) // 2 for a, b in zip(u, v))
                values[mid] = sf.a_hat(mid)
    point, lowest = min(values.items(), key=lambda kv: (kv[1], kv[0]))
    if lowest >= 0:
        return None

    # Bisect on the segment from (1,...,1) to gamma = m * point / (2S) over
    # one denominator den: lo / den and hi / den keep
    # a_hat(lo / den) >= 0 > a_hat(hi / den), and value = a_hat(lo) is
    # den^{p/2} a_hat(lo / den).
    den = 2 * s
    lo, hi = (den,) * m, tuple(m * x for x in point)
    value = sf.a_hat(lo)
    if value < 0:
        raise RuntimeError("a_hat(1,...,1) = min_k w_k came out negative for a "
                           "verified frame; this indicates a defect")
    spent = 0
    while value > tol * den**half:
        if spent >= BISECTION_BUDGET:
            raise BudgetExhaustedError(
                f"bisection budget {BISECTION_BUDGET} exhausted at "
                f"a_hat = {float(value / den**half):.3e} (tolerance {float(tol):.3e})")
        den *= 2
        mid = tuple(a + b for a, b in zip(lo, hi))
        mid_value = sf.a_hat(mid)
        if mid_value >= 0:
            lo, hi, value = mid, tuple(2 * b for b in hi), mid_value
        else:
            lo, hi, value = tuple(2 * a for a in lo), mid, value * 2**half
        spent += 1
    mu = tuple(Fraction(x, den) for x in lo)

    coeffs = sf.evaluate(mu)
    keep = [k for k, a in enumerate(coeffs) if a > tol]
    if not keep:
        raise FrameError("all scaling coefficients vanished; frame is degenerate")
    roots = [_rational_root(v, 2) for v in mu]
    if all(r is not None for r in roots):
        inv = [Fraction(1) / r for r in roots]
    else:
        inv = [1.0 / math.sqrt(float(v)) for v in mu]
    vectors = []
    for k in keep:
        u = frame.vectors[k]
        vectors.append(KVector(frame.field, tuple(
            entry.scale(inv[i]) for i, entry in enumerate(u.entries))))
    reduced = WeightedFrame(frame.field, m, frame.p, tuple(vectors),
                            tuple(coeffs[k] for k in keep))

    dropped_clean = all(coeffs[k] == 0 for k in range(len(coeffs)) if k not in keep)
    bound = None
    if not (reduced.is_exact and dropped_clean):
        # Dropped coefficients bound the residual: the identity is exact
        # before dropping, so the leftover is sum of a_k * max coeff of the
        # dropped rescaled forms, plus binary64 noise.  An entry beyond
        # binary64 overflows on the way: the same as a non-finite bound.
        bound = 1e-8
        try:
            for k, a in enumerate(coeffs):
                if k in keep:
                    continue
                u = frame.vectors[k]
                dropped = KVector(frame.field, tuple(
                    entry.scale(float(inv[i])) for i, entry in enumerate(u.entries)))
                bound += float(a) * frame_form(dropped, frame.p).max_abs_coeff()
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise FrameError("the bound for the dropped vectors is not finite in binary64")
    if not verify(reduced, tolerance=bound).passed:
        raise RuntimeError("scaling reduction failed re-verification; this indicates a defect")
    return reduced


def catalog(field: Field, m: int, p: int, kind: str) -> WeightedFrame:
    """Small library of known frames.

    orthonormal-p2: canonical basis with unit weights, any K, p = 2.
    real2-equiangular: over R^2, the p/2 + 1 unit vectors at angles
        k*pi/(p/2+1) with equal weights 2^p / ((p/2+1) binom(p, p/2));
        floating-point entries.
    real2-rational-p4: the exact rational 4-vector frame over R^2 at p = 4.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if kind == "orthonormal-p2":
        if p != 2:
            raise ValueError(f"orthonormal-p2 requires p = 2, got p = {p}")
        vectors = tuple(KVector.canonical(field, m, i) for i in range(m))
        return WeightedFrame(field, m, 2, vectors, (Fraction(1),) * m)
    if kind == "real2-equiangular":
        if field is not Field.R or m != 2:
            raise ValueError("real2-equiangular requires field R and m = 2")
        if p < 2 or p % 2:
            raise ValueError(f"real2-equiangular requires even p, got {p}")
        count = p // 2 + 1
        vectors = tuple(
            KVector.from_reals(Field.R, (math.cos(k * math.pi / count),
                                         math.sin(k * math.pi / count)))
            for k in range(count))
        weight = Fraction(2**p, count * comb(p, p // 2))
        return WeightedFrame(Field.R, 2, p, vectors, (weight,) * count)
    if kind == "real2-rational-p4":
        if field is not Field.R or m != 2 or p != 4:
            raise ValueError("real2-rational-p4 requires field R, m = 2, p = 4")
        vectors = tuple(KVector.from_reals(Field.R, pair)
                        for pair in ((1, 0), (0, 1), (1, 1), (1, -1)))
        weights = (Fraction(2, 3), Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
        return WeightedFrame(Field.R, 2, 4, vectors, weights)
    raise ValueError(
        f"unsupported catalog kind {kind!r}; expected orthonormal-p2, "
        "real2-equiangular or real2-rational-p4")


def _rational_root(value: Fraction, p: int) -> Optional[Fraction]:
    def iroot(x: int) -> Optional[int]:
        # Integer Newton iteration from 2^ceil(bits/p), which is above the
        # root; it decreases strictly until it reaches floor(x^(1/p)).
        if x < 2:
            return x if x >= 0 else None
        r = 1 << -(-x.bit_length() // p)
        while True:
            s = ((p - 1) * r + x // r ** (p - 1)) // p
            if s >= r:
                break
            r = s
        return r if r**p == x else None

    rn = iroot(value.numerator)
    rd = iroot(value.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def to_unweighted(frame: WeightedFrame, mode: str = "exact") -> WeightedFrame:
    """Fold weights into the vectors: u_k <- u_k w_k^{1/p}, weights 1.

    Exact mode requires every weight to be a p-th power of a rational;
    float mode takes binary64 roots and yields floating-point vectors.
    """
    if mode == "exact":
        vectors = []
        for k, (u, w) in enumerate(zip(frame.vectors, frame.weights)):
            if not isinstance(w, Fraction):
                raise FrameError(f"weight {k} is not rational; use float mode")
            root = _rational_root(w, frame.p)
            if root is None:
                raise FrameError(
                    f"weight {k} = {w} is not a p-th power of a rational; use float mode")
            vectors.append(u.scale_real(root))
    elif mode == "float":
        vectors = [_float_fold(k, u, w, frame.p)
                   for k, (u, w) in enumerate(zip(frame.vectors, frame.weights))]
    else:
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    return WeightedFrame(frame.field, frame.m, frame.p, tuple(vectors),
                         (Fraction(1),) * frame.n)


def _float_fold(k: int, u: KVector, w: Scalar, p: int) -> KVector:
    """u w^(1/p) in binary64; FrameError naming weight k when that root is
    not finite and positive, or when the product overflows an entry of u or
    underflows u to zero."""
    root = folded = None
    try:
        root = float(w) ** (1.0 / p)
        folded = u.scale_real(root)
    except OverflowError:
        pass
    if root is None or not 0 < root < math.inf:
        raise FrameError(f"weight {k} has no finite positive binary64 {p}-th root")
    if folded is None or folded.is_zero or not all(map(math.isfinite, folded.real_coords())):
        raise FrameError(f"weight {k} folded into vector {k} leaves the binary64 range")
    return folded


def _frame_to_obj(frame: WeightedFrame) -> dict:
    return {
        "field": frame.field.name,
        "m": frame.m,
        "p": frame.p,
        "vectors": [[[scalar_to_str(c) for c in entry.components]
                     for entry in u.entries] for u in frame.vectors],
        "weights": [scalar_to_str(w) for w in frame.weights],
    }


def serialize_frame(frame: WeightedFrame) -> str:
    return json.dumps(_frame_to_obj(frame), indent=2) + "\n"


def _finite_scalar(text: str) -> Scalar:
    value = scalar_from_str(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_frame(text: str) -> WeightedFrame:
    """Parse the frame file format; inverse of serialize_frame, bit-exact."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameParseError(f"not valid structured text: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameParseError("top level must be an object")
    missing = {"field", "m", "p", "vectors", "weights"} - set(obj)
    if missing:
        raise FrameParseError(f"missing fields: {', '.join(sorted(missing))}")
    try:
        field = Field.from_tag(obj["field"])
    except (ValueError, TypeError) as exc:
        raise FrameParseError(str(exc)) from None
    m, p = obj["m"], obj["p"]
    if type(m) is not int or type(p) is not int:
        raise FrameParseError("m and p must be integers")
    d = field.real_dimension
    raw_vectors = obj["vectors"]
    raw_weights = obj["weights"]
    if not isinstance(raw_vectors, list) or not isinstance(raw_weights, list):
        raise FrameParseError("vectors and weights must be arrays")
    vectors = []
    for k, raw in enumerate(raw_vectors):
        if not isinstance(raw, list) or len(raw) != m:
            raise FrameParseError(f"vector {k} must be an array of {m} entries")
        entries = []
        for i, comps in enumerate(raw):
            if not isinstance(comps, list) or len(comps) != d:
                raise FrameParseError(
                    f"vector {k} entry {i} must be an array of {d} component strings")
            try:
                entries.append(KElement(field, tuple(_finite_scalar(c) for c in comps)))
            except (ValueError, TypeError, AttributeError) as exc:
                raise FrameParseError(f"vector {k} entry {i}: {exc}") from None
        vectors.append(KVector(field, tuple(entries)))
    weights = []
    for k, raw in enumerate(raw_weights):
        try:
            weights.append(_finite_scalar(raw))
        except (ValueError, TypeError, AttributeError) as exc:
            raise FrameParseError(f"weight {k}: {exc}") from None
    try:
        return WeightedFrame(field, m, p, tuple(vectors), tuple(weights))
    except ValueError as exc:
        raise FrameParseError(str(exc)) from None


def load_frame(path) -> WeightedFrame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FrameParseError(f"cannot read {path}: {exc}") from None
    return parse_frame(text)


def save_frame(frame: WeightedFrame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_frame(frame))
