"""Weighted frames of isometric embeddings from the Euclidean space over K
into an l_p space, and the two reduction procedures.

A weighted frame is a system of nonzero vectors u_k in K^m with positive
weights w_k.  It verifies when

    sum_k w_k |<u_k, x>|^p  =  <x, x>^{p/2}

holds identically; both sides are degree-p forms in the d*m real coordinates
of x, so verification is an exact polynomial zero test.  The weighted
representation keeps everything rational: folding a weight into its vector
needs a p-th root, which is a separate lossy export (`to_unweighted`).

The unweighted forms |<u_k,x>|^p are expanded once per frame
(`WeightedFrame.forms`) and shared with the frames reduce_once returns.

Reductions:
  * dependence/reduce_once drops vectors along an exact linear dependence of
    the weighted frame forms, rescaling the surviving weights by 1 - omega_k.
  * scaling_reduce searches the coordinate cone for a parameter point mu where
    the smallest expansion coefficient a_k(mu) vanishes, then rescales the
    coordinates by diag(mu_i^{1/2}) and drops the vanishing vector.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .forms import (
    Exponent,
    RealForm,
    abs_inner_sq_form,
    frame_form,
    linear_combination,
    monomials,
    norm_power_form,
)
from .kscalar import (
    Field,
    KElement,
    KVector,
    Scalar,
    cayley_point,
    inner_product,
    scalar_from_str,
    scalar_to_str,
)
from .linalg import RowReducer
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
    "generic_rotation",
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

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        object.__setattr__(self, "weights", tuple(self.weights))
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

    @property
    def is_exact(self) -> bool:
        return all(u.is_exact for u in self.vectors) and all(
            isinstance(w, Fraction) for w in self.weights)

    @cached_property
    def forms(self) -> Tuple[RealForm, ...]:
        """The unweighted forms |<u_k, x>|^p, expanded on first use."""
        return tuple(frame_form(u, self.p) for u in self.vectors)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of the identity check, with the residual form for diagnostics."""

    passed: bool
    residual: RealForm

    @property
    def max_residual(self) -> float:
        """Largest absolute residual coefficient as a float; FrameError when
        it has no finite binary64 value."""
        return _residual_max(self.residual)


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
    raise FrameError("the residual overflows binary64: a frame entry is too large "
                     "for a floating-point check at this p")


def verify(frame: WeightedFrame, tolerance: Optional[float] = None) -> VerifyResult:
    """Check sum_k w_k |<u_k,x>|^p = <x,x>^{p/2}.

    With tolerance None the test is exact (the residual must be the zero
    form); otherwise the largest absolute residual coefficient is compared
    against the tolerance, which is the only meaningful test for frames with
    floating-point entries.  A residual coefficient beyond binary64 (a float
    that overflowed to inf or nan, or an exact one too large to convert)
    compares with no tolerance and raises FrameError.
    """
    norm = norm_power_form(frame.field, frame.m, frame.p)
    residual = linear_combination(frame.weights + (-1,), frame.forms + (norm,))
    if tolerance is None:
        passed = residual.is_zero
    else:
        if tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        passed = _residual_max(residual) <= tolerance
    return VerifyResult(passed=passed, residual=residual)


@dataclass(frozen=True)
class DependenceCertificate:
    """Exact dependence sum_k omega_k w_k |<u_k,x>|^p = 0, max_k omega_k = 1."""

    omega: Tuple[Fraction, ...]
    pivot: int


def dependence(frame: WeightedFrame) -> Optional[DependenceCertificate]:
    """First linear dependence among the weighted frame forms, or None.

    The unweighted forms `frame.forms`, as rows keyed by monomial, are reduced
    exactly in frame order.  Positive weights move neither the first
    dependent row nor its dependency c, unique up to scale, so the
    certificate is omega_k = c_k / w_k normalized to max_k omega_k = 1
    (indices after the dependent row get omega = 0).
    """
    if not frame.is_exact:
        raise FrameError("dependence detection requires exact rational entries")
    reducer = RowReducer()
    for k, form in enumerate(frame.forms):
        cert = reducer.add_row(form.terms)
        if cert is not None:
            combo = [cert.get(j, 0) / frame.weights[j] for j in range(k)]
            combo.append(-1 / frame.weights[k])
            peak = max(combo)
            omega = [c / peak for c in combo] + [Fraction(0)] * (frame.n - k - 1)
            pivot = omega.index(Fraction(1))
            return DependenceCertificate(omega=tuple(omega), pivot=pivot)
    return None


def reduce_once(frame: WeightedFrame, cert: DependenceCertificate) -> WeightedFrame:
    """Drop the omega = 1 vectors and rescale the rest by 1 - omega_k.

    This is the weighted, fully rational form of replacing u_k with
    u_k (1-omega_k)^{1/p}: the output verifies exactly when the input does,
    and is strictly smaller.
    """
    if len(cert.omega) != frame.n:
        raise CertificateError(
            f"certificate has {len(cert.omega)} entries for a frame of size {frame.n}")
    if max(cert.omega) != 1:
        raise CertificateError("certificate must be normalized to max omega = 1")
    combo = linear_combination([w * om for w, om in zip(frame.weights, cert.omega)],
                               frame.forms)
    if not combo.is_zero:
        raise CertificateError("certificate residual identity fails for this frame")
    keep = [k for k, om in enumerate(cert.omega) if om != 1]
    reduced = WeightedFrame(frame.field, frame.m, frame.p,
                            tuple(frame.vectors[k] for k in keep),
                            tuple(frame.weights[k] * (1 - cert.omega[k]) for k in keep))
    # The kept vectors are the same objects, so their forms are too.
    object.__setattr__(reduced, "forms", tuple(frame.forms[k] for k in keep))
    return reduced


def reduce_to_independent(frame: WeightedFrame) -> WeightedFrame:
    """Iterate dependence/reduce_once until the frame forms are independent.

    Terminates in at most n steps since each reduction is strictly smaller.
    The postcondition n <= dim Phi_K(m,p) is checked at runtime and an
    unexpected violation raises.
    """
    current = frame
    while True:
        cert = dependence(current)
        if cert is None:
            break
        current = reduce_once(current, cert)
    dim = dim_phi(current.field, current.m, current.p)
    if current.n > dim:
        raise RuntimeError(
            f"independent frame of size {current.n} exceeds dim Phi = {dim}; "
            "this contradicts the rank bound and indicates a defect")
    return current


@dataclass(frozen=True)
class ScalingForms:
    """Expansion coefficients a_k as exact forms of degree p/2 in lambda.

    They satisfy sum_k a_k(lambda) |<u_k,x>|^p = (sum_i lambda_i |xi_i|^2)^{p/2}
    identically, so a_k(1,...,1) = w_k.
    """

    coefficients: Tuple[RealForm, ...]

    def evaluate(self, lam: Sequence[Scalar]) -> List[Scalar]:
        return [a.evaluate(lam) for a in self.coefficients]

    def a_hat(self, lam: Sequence[Scalar]) -> Scalar:
        """min_k a_k(lambda), the quantity whose zero crossing drives the reduction."""
        return min(self.evaluate(lam))


def scaling_coefficients(frame: WeightedFrame) -> ScalingForms:
    """Expand the lambda-weighted norm power in the frame-form basis.

    Writes F_lambda = (sum_i lambda_i |xi_i|^2)^{p/2} as
    sum_k a_k(lambda) |<u_k,x>|^p.  By the multinomial theorem,
    F_lambda = sum_nu lambda^nu C_nu(x) with C_nu = (p/2; nu) prod_i
    |xi_i|^{2 nu_i}; each slice C_nu is reduced against the frame forms, and
    its dependence certificate gives the coefficients of lambda^nu in the
    a_k.  The resulting identity is re-checked symbolically slice by slice,
    sum_k a_{k,nu} f_k = C_nu, which holds for every nu exactly when it
    holds in (lambda, x); frames whose span misses a slice are rejected.
    """
    if not frame.is_exact:
        raise FrameError("scaling coefficients require exact rational entries")
    if not verify(frame).passed:
        raise UnverifiedFrameError(
            "scaling coefficients are defined for verified frames only")
    m, p = frame.m, frame.p
    reducer = RowReducer()
    for form in frame.forms:
        if reducer.add_row(form.terms) is not None:
            raise DependentFormsError(
                "frame forms are linearly dependent; run reduce_to_independent first")
    half = p // 2
    squares = [abs_inner_sq_form(KVector.canonical(frame.field, m, i)) for i in range(m)]
    terms: List[Dict[Exponent, Fraction]] = [{} for _ in range(frame.n)]
    for nu in monomials(m, half):
        weight = math.factorial(half) // math.prod(math.factorial(e) for e in nu)
        c_nu = math.prod((q ** e for q, e in zip(squares, nu) if e), start=weight)
        cert = reducer.add_row(c_nu.terms)
        if cert is None or linear_combination(
                [cert.get(k, 0) for k in range(frame.n)], frame.forms) != c_nu:
            raise ScalingExpansionError(
                "diagonal target is not in the span of the frame forms; "
                "the expansion identity has no solution for this frame")
        for k, c in cert.items():
            terms[k][nu] = c
    coefficients = [RealForm(m, half, t) for t in terms]
    return ScalingForms(coefficients=tuple(coefficients))


MAX_GRID_NODES = 100_000  # cap on comb(grid, m - 1), the simplex nodes scaling_reduce evaluates
BISECTION_BUDGET = 200  # cap on the bisection steps of scaling_reduce


def _simplex_nodes(m: int, per_axis: int) -> List[Tuple[Fraction, ...]]:
    # Interior grid on the simplex lambda_1 + ... + lambda_m = m: points
    # m * (c_1, ..., c_m) / S with integer c_i >= 1 summing to S = per_axis + 1.
    s = per_axis + 1
    nodes = []
    for cuts in combinations(range(1, s), m - 1):
        bounds = (0,) + cuts + (s,)
        parts = [bounds[i + 1] - bounds[i] for i in range(m)]
        nodes.append(tuple(Fraction(m * c, s) for c in parts))
    return nodes


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
    nothing).
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    tol = Fraction(tolerance)
    sf = scaling_coefficients(frame)
    m = frame.m
    if grid is None:
        grid = 33 if m == 2 else 9 if m == 3 else max(5, m - 1)
    if grid < max(1, m - 1):
        raise ValueError(f"grid must be >= {max(1, m - 1)} for m = {m}, got {grid}")
    if comb(grid, m - 1) > MAX_GRID_NODES:
        raise ValueError(f"grid {grid} gives more than {MAX_GRID_NODES} nodes for m = {m}")

    nodes = _simplex_nodes(m, grid)
    values = {node: sf.a_hat(node) for node in nodes}
    # Refine between neighboring nodes of opposite sign: a neighbor moves one
    # unit of 1/S mass from coordinate i to coordinate j.  Each such pair has
    # exactly one negative node, so pairs are taken from the negative side.
    unit = Fraction(m, grid + 1)
    for u in nodes:
        if values[u] >= 0:
            continue
        for i, j in permutations(range(m), 2):
            v = list(u)
            v[i] -= unit
            v[j] += unit
            v = tuple(v)
            if v in values and values[v] >= 0:
                mid = tuple((a + b) / 2 for a, b in zip(u, v))
                values[mid] = sf.a_hat(mid)
    gamma = min(values, key=lambda node: (values[node], node))
    if values[gamma] >= 0:
        return None

    # Bisect on the segment from (1,...,1) to gamma, keeping
    # value = a_hat(mu) >= 0 > a_hat(hi).
    mu, hi = (Fraction(1),) * m, gamma
    value = sf.a_hat(mu)
    if value < 0:
        raise RuntimeError("a_hat(1,...,1) = min_k w_k came out negative for a "
                           "verified frame; this indicates a defect")
    spent = 0
    while value > tol:
        if spent >= BISECTION_BUDGET:
            raise BudgetExhaustedError(
                f"bisection budget {BISECTION_BUDGET} exhausted at a_hat = {float(value):.3e} "
                f"(tolerance {float(tol):.3e})")
        mid = tuple((a + b) / 2 for a, b in zip(mu, hi))
        mid_value = sf.a_hat(mid)
        if mid_value >= 0:
            mu, value = mid, mid_value
        else:
            hi = mid
        spent += 1

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
    if reduced.is_exact and dropped_clean:
        if not verify(reduced).passed:
            raise RuntimeError("exact scaling reduction failed re-verification; "
                               "this indicates a defect")
    else:
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
            raise RuntimeError("scaling reduction failed floating-point re-verification; "
                               "this indicates a defect")
    return reduced


def generic_rotation(frame: WeightedFrame, seed: int = 0) -> Tuple[WeightedFrame, KVector]:
    """Rotate so every vector has nonzero first inner-product coordinate.

    Finds a rational unit vector e with <u_k, e> != 0 for all k; each failure
    lies on one of n hyperplanes, so random samples succeed generically.  The
    frame is mapped through the reflection H exchanging e_1 and e (H is
    K-unitary and self-inverse; e is built with a real first component so H
    stays rational).  Returns (H u_k with original weights, e).
    """
    d = frame.field.real_dimension
    n_real = d * frame.m

    def clears(e: KVector) -> bool:
        return all(not inner_product(u, e).is_zero for u in frame.vectors)

    e1 = KVector.canonical(frame.field, frame.m, 0)
    if clears(e1):
        return frame, e1

    rng = random.Random(seed)
    bound = 4
    e = None
    for _ in range(64):
        # Cayley parameters: first d-1 zeros keep the first component of e
        # real, which makes the reflection below exact.
        params = [Fraction(0)] * (d - 1) + [
            Fraction(rng.randint(-bound, bound)) for _ in range(n_real - d)]
        coords = cayley_point(params)
        candidate = KVector(frame.field, tuple(
            KElement(frame.field, coords[i * d:(i + 1) * d]) for i in range(frame.m)))
        if clears(candidate):
            e = candidate
            break
        bound *= 2
    if e is None:
        raise RuntimeError("no generic direction found; the frame is degenerate")

    # H x = x - v (2 <v,x> / <v,v>) with v = e_1 - e; H e_1 = e because the
    # first component of e is real.
    v = e1 - e
    scale = 2 / v.norm_sq()
    vectors = [u - v.scale_right(inner_product(v, u).scale(scale))
               for u in frame.vectors]
    rotated = WeightedFrame(frame.field, frame.m, frame.p, tuple(vectors), frame.weights)
    return rotated, e


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
        vectors = [u.scale_real(float(w) ** (1.0 / frame.p))
                   for u, w in zip(frame.vectors, frame.weights)]
    else:
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    return WeightedFrame(frame.field, frame.m, frame.p, tuple(vectors),
                         (Fraction(1),) * frame.n)


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
