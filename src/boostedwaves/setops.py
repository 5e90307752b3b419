"""Exact algebra of finite unions of open real intervals under Minkowski sums.

Endpoints are plain doubles compared exactly (inputs are constructed, not
measured); rays carry IEEE infinities and ``(-inf, inf)`` is the canonical
real line.  Canonical form keeps intervals sorted and disjoint; touching open
intervals like (0,1) and (1,2) stay separate because the shared endpoint is
excluded from the set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

INF = math.inf


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint open intervals (a_i, b_i), a_i < b_i <= a_{i+1}."""

    intervals: tuple[tuple[float, float], ...]

    @staticmethod
    def of(*pairs) -> "IntervalUnion":
        return IntervalUnion(_canonical(pairs))

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @staticmethod
    def reals() -> "IntervalUnion":
        return IntervalUnion(((-INF, INF),))

    @staticmethod
    def positive_ray() -> "IntervalUnion":
        return IntervalUnion(((0.0, INF),))

    @staticmethod
    def negative_ray() -> "IntervalUnion":
        return IntervalUnion(((-INF, 0.0),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(a < x < b for a, b in self.intervals)

    def subset_of(self, other: "IntervalUnion") -> bool:
        for a, b in self.intervals:
            if not any(c <= a and b <= d for c, d in other.intervals):
                # an open interval is covered only if one piece contains it:
                # unions of disjoint open intervals cannot stitch a cover
                return False
        return True

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        if self.intervals == ((-INF, INF),):
            return "R"
        return "|".join(f"({_fmt(a)},{_fmt(b)})" for a, b in self.intervals)


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return repr(x)


def _canonical(pairs) -> tuple[tuple[float, float], ...]:
    items = []
    for a, b in pairs:
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            raise ValueError("interval endpoints must not be NaN")
        if not a < b:
            raise ValueError(f"need a < b for an open interval, got ({a}, {b})")
        items.append((a, b))
    items.sort()
    merged: list[tuple[float, float]] = []
    for a, b in items:
        if merged and a < merged[-1][1]:
            # strict overlap only: a == previous b keeps the puncture
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return tuple(merged)


def union(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return IntervalUnion(_canonical(x.intervals + y.intervals))


def minkowski_sum(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    """Elementwise sum: pairwise open-interval sums merged to canonical form."""
    if x.is_empty or y.is_empty:
        return IntervalUnion.empty()
    pairs = []
    for a, b in x.intervals:
        for c, d in y.intervals:
            pairs.append((a + c, b + d))
    return IntervalUnion(_canonical(pairs))


def minkowski_power(x: IntervalUnion, m: int) -> IntervalUnion:
    """m-fold Minkowski sum via repeated squaring."""
    m = int(m)
    if m < 1:
        raise ValueError("fold count must be >= 1")
    acc: IntervalUnion | None = None
    base = x
    while m:
        if m & 1:
            acc = base if acc is None else minkowski_sum(acc, base)
        m >>= 1
        if m:
            base = minkowski_sum(base, base)
    return acc


def is_fixed_point(x: IntervalUnion, m: int) -> bool:
    """True iff the m-fold Minkowski sum equals x exactly."""
    if m < 2:
        raise ValueError("fold count must be >= 2")
    if x.is_empty:
        return False
    return minkowski_power(x, m) == x


CANONICAL_FIXED_POINTS = (
    IntervalUnion.reals(),
    IntervalUnion.positive_ray(),
    IntervalUnion.negative_ray(),
)


@dataclass
class FixedPointSummary:
    canonical_hits: int
    unexpected: list[IntervalUnion]

    @property
    def passed(self) -> bool:
        return not self.unexpected


def classify_fixed_points(candidates, m: int) -> FixedPointSummary:
    """Scan open sets for m-fold Minkowski fixed points.

    Only the full line and the two open half-lines can be fixed points; any
    other candidate that is fixed is reported as a would-be counterexample.
    """
    canonical_hits = 0
    unexpected = []
    for x in candidates:
        if not is_fixed_point(x, m):
            continue
        if x in CANONICAL_FIXED_POINTS:
            canonical_hits += 1
        else:
            unexpected.append(x)
    return FixedPointSummary(canonical_hits, unexpected)


def lattice_unions(endpoints, max_intervals: int = 2) -> list[IntervalUnion]:
    """Every distinct union of at most max_intervals open intervals whose
    endpoints lie in ``endpoints``, in canonical form and sorted.

    With infinite endpoints in the set this covers the line, both kinds of ray
    and gapped unbounded unions such as (-inf,-1)|(1,inf).
    """
    ends = sorted({float(e) for e in endpoints})
    pieces = list(itertools.combinations(ends, 2))  # every (a, b) with a < b
    found = {
        IntervalUnion.of(*combo)
        for count in range(1, max_intervals + 1)
        for combo in itertools.combinations(pieces, count)
    }
    return sorted(found, key=lambda x: x.intervals)


def random_interval_union(rng, max_intervals: int = 5, span: float = 10.0,
                          quantum: float | None = None) -> IntervalUnion:
    """Random bounded union of up to max_intervals open intervals.

    With ``quantum`` set, endpoints land on that dyadic lattice, keeping all
    endpoint sums exact in double precision (addition of small dyadics does
    not round), so algebraic identities can be tested for exact equality.
    """
    count = int(rng.integers(1, max_intervals + 1))
    pairs = []
    for _ in range(count):
        if quantum is None:
            a = float(rng.uniform(-span, span))
            width = float(rng.uniform(1e-3, span / 2))
        else:
            cells = int(span / quantum)
            a = int(rng.integers(-cells, cells)) * quantum
            width = int(rng.integers(1, max(2, cells // 2))) * quantum
        pairs.append((a, a + width))
    return IntervalUnion.of(*pairs)


def rasterize(x: IntervalUnion, coords) -> "np.ndarray":
    """Boolean mask of lattice points lying inside the union."""
    import numpy as np

    coords = np.asarray(coords, dtype=float)
    mask = np.zeros(coords.shape, dtype=bool)
    for a, b in x.intervals:
        mask |= (coords > a) & (coords < b)
    return mask
