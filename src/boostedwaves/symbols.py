"""Fourier multipliers p(xi), boosted symbols p(xi) - v.xi, and their floors.

:data:`KINDS` is the one table of symbol kinds.  Each row names a kind's
factory, its config parameters with their defaults, its evaluator and its
dispersion floor; :meth:`Symbol.evaluate`, :func:`dispersion_floor` and the
CLI's config parser all read it, and no other module names a kind.  The four
kinds are the abstract's families: fractional |xi|^(2s), biharmonic
|xi|^4 - mu |xi|^2, square-root Klein-Gordon sqrt(|xi|^2 + m^2) and half-wave
|xi|.

Every kind is radial, so the dispersion floor
``Sigma_v = inf_xi p(xi) - v.xi`` is min_{r >= 0} p(r) - |v| r whatever the
direction of v, and every kind has it in closed form: for fractional s > 1/2
it is -(2s - 1) (|v| / 2s)^(2s / (2s - 1)), for s = 1/2 and the half-wave
symbol 0, for square-root Klein-Gordon m sqrt(1 - |v|^2), and for biharmonic
the value at r = 0 or at the largest real root of 4r^3 - 2 mu r - |v| = 0,
the only critical point on r > 0 once v != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import HypothesisViolatedError


@dataclass(frozen=True)
class Symbol:
    """A radial Fourier multiplier p(xi) of order s: one kind of :data:`KINDS`
    in ``ndim`` dimensions, with that kind's parameters as (name, value) pairs."""

    kind: str
    ndim: int
    order: float
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not 1 <= self.ndim <= 3:
            raise ValueError("symbol dimension must be 1, 2, or 3")
        for name, value in self.params:
            if not math.isfinite(value):
                raise ValueError(f"symbol parameter {name!r} must be finite, got {value}")
        if not 0.0 < self.order < math.inf:
            raise ValueError(f"order s must be positive and finite, got {self.order}")

    def param(self, name):
        return dict(self.params)[name]

    def evaluate(self, xi_components):
        """Evaluate p on broadcastable frequency component arrays."""
        xi = list(xi_components)
        if len(xi) != self.ndim:
            raise ValueError(f"expected {self.ndim} frequency components, got {len(xi)}")
        return KINDS[self.kind].evaluate(self, xi)

    def on_grid(self, grid) -> np.ndarray:
        """p on the frequency mesh of ``grid``, full size.

        Built once per symbol and grid and shared read-only, as the grid's own
        tables are (:func:`fields._grid_tables`).
        """
        return _grid_values(self, grid)


@lru_cache(maxsize=4)
def _grid_values(sym: Symbol, grid) -> np.ndarray:
    return np.broadcast_to(sym.evaluate(grid.freq_mesh()), grid.sizes)  # a read-only view


def _sum_sq(components):
    total = 0.0
    for c in components:
        total = total + np.asarray(c, dtype=float) ** 2
    return total


def fractional(s: float, ndim: int = 1) -> Symbol:
    """p(xi) = |xi|^(2s), of order s."""
    return Symbol("fractional", ndim, float(s), params=(("s", float(s)),))


def biharmonic(mu: float = 0.0, ndim: int = 1) -> Symbol:
    """p(xi) = |xi|^4 - mu |xi|^2, of order s = 2.

    For mu > 0 the symbol is not increasing in |xi|: it dips to -mu^2 / 4 on
    the sphere |xi|^2 = mu / 2 and increases only beyond it.
    """
    return Symbol("biharmonic", ndim, 2.0, params=(("mu", float(mu)),))


def sqrt_klein_gordon(m: float, ndim: int = 1) -> Symbol:
    """p(xi) = sqrt(|xi|^2 + m^2), of order s = 1/2."""
    m = float(m)
    if m < 0:
        raise ValueError("mass m must be nonnegative")
    return Symbol("sqrt_klein_gordon", ndim, 0.5, params=(("m", m),))


def half_wave(ndim: int = 1) -> Symbol:
    """p(xi) = |xi|, the massless square-root symbol."""
    return Symbol("half_wave", ndim, 0.5)


def _biharmonic_p(sym: Symbol, xi) -> np.ndarray:
    mu = sym.param("mu")
    r2 = _sum_sq(xi)
    return r2**2 - mu * r2


def _sqrt_klein_gordon_p(sym: Symbol, xi) -> np.ndarray:
    m = sym.param("m")
    return np.sqrt(_sum_sq(xi) + m * m)


def _fractional_floor(sym: Symbol, speed: float) -> float:
    s = sym.order
    if s == 0.5 or speed == 0.0:
        return 0.0
    return -(2.0 * s - 1.0) * (speed / (2.0 * s)) ** (2.0 * s / (2.0 * s - 1.0))


def _biharmonic_floor(sym: Symbol, speed: float) -> float:
    """min of g(r) = r^4 - mu r^2 - speed r over r >= 0.

    g'(r) = 4r^3 - 2 mu r - speed has roots summing to 0 with product
    speed / 4 >= 0, so its largest real root r* is its only positive one when
    speed > 0, and g falls from g(0) = 0 to g(r*) and rises after.  With
    r = 2 a t, a = sqrt(|mu| / 6), the cubic reads 4t^3 -+ 3t = x, solved by
    the triple-angle identities of sinh (mu < 0), cos and cosh (mu > 0).
    g(r*) is formed as q (q - mu) - speed r* with q = r*^2, which at speed 0
    is stationary in the rounding of r*: -mu^2 / 4 to within an ulp.  Where
    x > 1e27, mu moves the floor by a relative 1.3 x^(-2/3), below rounding,
    and the floor is that of |xi|^4, fractional with s = 2 (so is mu = 0).
    """
    mu = sym.param("mu")
    a = math.sqrt(abs(mu) / 6.0)
    x = speed / (8.0 * a) / a / a if a else math.inf
    if x > 1e27:
        return _fractional_floor(sym, speed)
    if mu < 0.0:
        t = math.sinh(math.asinh(x) / 3.0)
    elif x <= 1.0:
        t = math.cos(math.acos(x) / 3.0)
    else:
        t = math.cosh(math.acosh(x) / 3.0)
    r = 2.0 * a * t
    q = r * r
    return min(q * (q - mu) - speed * r, 0.0)  # a NaN from overflow stays visible


def _sqrt_klein_gordon_floor(sym: Symbol, speed: float) -> float:
    return sym.param("m") * math.sqrt(1.0 - speed * speed)


@dataclass(frozen=True)
class SymbolKind:
    """One row of :data:`KINDS`.

    ``params`` maps each config parameter, which is also the factory's keyword
    besides ``ndim``, to its default (None: required).  ``evaluate(sym, xi)``
    computes p on the frequency components ``xi``.  ``floor(sym, speed)`` is
    Sigma_v at |v| = ``speed``, called only once the s and |v| hypotheses hold.
    """

    factory: Callable[..., Symbol]
    params: dict[str, float | None]
    evaluate: Callable[[Symbol, list], np.ndarray]
    floor: Callable[[Symbol, float], float]


KINDS = {
    "fractional": SymbolKind(fractional, {"s": None}, lambda sym, xi: _sum_sq(xi) ** sym.order,
                             _fractional_floor),
    "biharmonic": SymbolKind(biharmonic, {"mu": 0.0}, _biharmonic_p, _biharmonic_floor),
    "sqrt_klein_gordon": SymbolKind(sqrt_klein_gordon, {"m": None}, _sqrt_klein_gordon_p,
                                    _sqrt_klein_gordon_floor),
    "half_wave": SymbolKind(half_wave, {}, lambda sym, xi: np.sqrt(_sum_sq(xi)),
                            lambda sym, speed: 0.0),
}


@dataclass(frozen=True)
class BoostedSymbol:
    """p_v(xi) = p(xi) - v.xi for a velocity vector v."""

    base: Symbol
    velocity: tuple[float, ...]

    def __post_init__(self):
        if len(self.velocity) != self.base.ndim:
            raise ValueError("velocity dimension does not match the symbol")
        if not all(math.isfinite(v) for v in self.velocity):
            raise ValueError("velocity must be finite")

    @classmethod
    def make(cls, base: Symbol, velocity) -> "BoostedSymbol":
        if np.isscalar(velocity):
            velocity = (float(velocity),) + (0.0,) * (base.ndim - 1)
        return cls(base, tuple(float(v) for v in velocity))

    def evaluate(self, xi_components):
        return self._boost(self.base.evaluate(xi_components), xi_components)

    def on_grid(self, grid) -> np.ndarray:
        """p_v on the frequency mesh of ``grid``, from the base symbol's cached table."""
        return self._boost(self.base.on_grid(grid), grid.freq_mesh())

    def _boost(self, out, xi_components):
        """``out`` - v.xi; ``out`` itself when v = 0."""
        for v, xi in zip(self.velocity, xi_components):
            if v != 0.0:
                out = out - v * np.asarray(xi, dtype=float)
        return out


def dispersion_floor(bsym: BoostedSymbol) -> float:
    """Sigma_v = inf_xi p(xi) - v.xi, the coercivity constant of the problem.

    Requires s >= 1/2, and |v| < 1 when s = 1/2: every kind of order 1/2 grows
    like |xi|, so p(xi) - v.xi stops growing along v once |v| >= 1.  Otherwise
    a :class:`HypothesisViolatedError` is raised.  The value is the kind's
    closed form at |v|.
    """
    base = bsym.base
    speed = math.hypot(*bsym.velocity)  # no overflow of the squares
    if base.order < 0.5:
        raise HypothesisViolatedError("dispersion floor needs order s >= 1/2")
    if base.order == 0.5 and speed >= 1.0:
        raise HypothesisViolatedError(
            "s = 1/2 requires |v| < 1 for a finite dispersion floor"
        )
    return KINDS[base.kind].floor(base, speed)
