"""Fourier multipliers p(xi), boosted symbols p(xi) - v.xi, and their checks.

:data:`KINDS` is the one table of symbol kinds.  Each row names a kind's
factory, its config parameters with their defaults, and its evaluator;
:meth:`Symbol.evaluate` and the CLI's config parser both read it, and no other
module names a kind.  The four shipped kinds (fractional, biharmonic,
square-root Klein-Gordon, half-wave) get analytic growth bounds (order s,
coefficients A and B, additive shifts) from their factories.  A ``custom``
symbol carries bounds its user declares, so ``Problem.make`` runs the sampled
:func:`check_assumptions` on it, and on nothing else.

The dispersion floor ``Sigma_v = inf_xi p(xi) - v.xi`` of a radial kind with
a closed form (the ``floor`` column of :data:`KINDS`) is min_r p(r) - |v| r,
taken along v: for fractional s > 1/2 it is
-(2s - 1) (|v| / 2s)^(2s / (2s - 1)), for s = 1/2 and the half-wave symbol 0,
and for square-root Klein-Gordon m sqrt(1 - |v|^2).  ``biharmonic`` and
``custom`` symbols go through a bracketed line search along the symmetry axis;
by cylindrical monotonicity the minimizer has no transverse component when the
velocity is parallel to the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import HypothesisViolatedError, UnboundedBelowError
from .fields import Field


@dataclass(frozen=True)
class Symbol:
    """A real continuous Fourier multiplier with growth/symmetry metadata.

    The sampled validation checks
    ``A |xi|^(2s) + c <= p(xi) <= B |xi|^(2s) + b`` (the additive ``b`` on the
    upper side accommodates multipliers with p(0) > 0, e.g. a Klein-Gordon
    mass) and, transversally to ``axis``, strict radial increase.
    """

    kind: str
    ndim: int
    order: float
    lower_coef: float
    upper_coef: float
    lower_shift: float
    upper_shift: float = 0.0
    axis_index: int = 0
    params: tuple = ()
    func: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not 1 <= self.ndim <= 3:
            raise ValueError("symbol dimension must be 1, 2, or 3")
        if self.order <= 0:
            raise ValueError("order s must be positive")
        if self.lower_coef <= 0 or self.upper_coef <= 0:
            raise ValueError("bound coefficients A, B must be positive")
        if not 0 <= self.axis_index < self.ndim:
            raise ValueError("axis index out of range")

    @property
    def axis(self) -> np.ndarray:
        e = np.zeros(self.ndim)
        e[self.axis_index] = 1.0
        return e

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
        tables are (:func:`fields._grid_tables`).  A symbol built from a
        callable is evaluated afresh: symbols compare without their callable.
        """
        if self.func is not None:
            return np.broadcast_to(self.evaluate(grid.freq_mesh()), grid.sizes)
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
    """p(xi) = |xi|^(2s); exact bounds A = B = 1, c = 0."""
    return Symbol("fractional", ndim, float(s), 1.0, 1.0, 0.0, params=(("s", float(s)),))


def biharmonic(mu: float = 0.0, ndim: int = 1, A: float = 0.5) -> Symbol:
    """p(xi) = |xi|^4 - mu |xi|^2 with order s = 2.

    For mu > 0 the lower bound needs A < 1; the sharp shift for a given A is
    c = -mu^2 / (4 (1 - A)), the global minimum of p - A |xi|^4.  For mu < 0
    the upper bound needs headroom instead: p <= 2 |xi|^4 + mu^2 / 4, again
    sharp.
    """
    mu = float(mu)
    a, b_coef, c, b_shift = 1.0, 1.0, 0.0, 0.0
    if mu > 0:
        a = float(A)
        if not 0 < a < 1:
            raise ValueError("biharmonic with mu > 0 needs 0 < A < 1")
        c = -(mu * mu) / (4.0 * (1.0 - a))
    elif mu < 0:
        b_coef = 2.0
        b_shift = mu * mu / 4.0
    return Symbol(
        "biharmonic", ndim, 2.0, a, b_coef, c, upper_shift=b_shift, params=(("mu", mu),)
    )


def sqrt_klein_gordon(m: float, ndim: int = 1) -> Symbol:
    """p(xi) = sqrt(|xi|^2 + m^2), order s = 1/2; upper bound shifted by m."""
    m = float(m)
    if m < 0:
        raise ValueError("mass m must be nonnegative")
    return Symbol(
        "sqrt_klein_gordon", ndim, 0.5, 1.0, 1.0, 0.0, upper_shift=m, params=(("m", m),)
    )


def half_wave(ndim: int = 1) -> Symbol:
    """p(xi) = |xi|, the massless square-root symbol."""
    return Symbol("half_wave", ndim, 0.5, 1.0, 1.0, 0.0)


def custom(func, order: float, lower_coef: float, upper_coef: float, lower_shift: float,
           ndim: int = 1, upper_shift: float = 0.0, axis_index: int = 0) -> Symbol:
    """Wrap a callable p(xi_1, ..., xi_n) with user-supplied bound metadata."""
    return Symbol(
        "custom", ndim, float(order), float(lower_coef), float(upper_coef),
        float(lower_shift), upper_shift=float(upper_shift), axis_index=axis_index,
        func=func,
    )


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


def _sqrt_klein_gordon_floor(sym: Symbol, speed: float) -> float:
    return sym.param("m") * math.sqrt(1.0 - speed * speed)


@dataclass(frozen=True)
class SymbolKind:
    """One row of :data:`KINDS`.

    ``params`` maps each config parameter, which is also the factory's keyword
    besides ``ndim``, to its default (None: required).  It is None for
    ``custom``, whose callable no config file can name.  ``evaluate(sym, xi)``
    computes p on the frequency components ``xi``.  ``floor(sym, speed)``, when
    given, is the closed-form Sigma_v of the radial kind at |v| = ``speed``,
    called only once the s and |v| hypotheses hold; without it the floor is
    searched numerically.
    """

    factory: Callable[..., Symbol]
    params: dict[str, float | None] | None
    evaluate: Callable[[Symbol, list], np.ndarray]
    floor: Callable[[Symbol, float], float] | None = None


KINDS = {
    "fractional": SymbolKind(fractional, {"s": None}, lambda sym, xi: _sum_sq(xi) ** sym.order,
                             _fractional_floor),
    "biharmonic": SymbolKind(biharmonic, {"mu": 0.0, "A": 0.5}, _biharmonic_p),
    "sqrt_klein_gordon": SymbolKind(sqrt_klein_gordon, {"m": None}, _sqrt_klein_gordon_p,
                                    _sqrt_klein_gordon_floor),
    "half_wave": SymbolKind(half_wave, {}, lambda sym, xi: np.sqrt(_sum_sq(xi)),
                            lambda sym, speed: 0.0),
    "custom": SymbolKind(custom, None, lambda sym, xi: sym.func(*xi)),
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


# -- sampled assumption checks ------------------------------------------------

# Sampling plan: a tensor grid on [-CHECK_EXTENT, CHECK_EXTENT]^n plus random
# points for the growth bound, and radial profiles transverse to the axis at
# evenly spaced axial positions for the monotonicity check.
CHECK_EXTENT = 16.0
CHECK_POINTS_PER_AXIS = 64
CHECK_RANDOM_POINTS = 512
CHECK_AXIAL_SAMPLES = 33
CHECK_RADIAL_SAMPLES = 24
CHECK_SEED = 0


@dataclass
class AssumptionReport:
    ass1_ok: bool
    ass2_ok: bool
    ass1_witness: tuple | None
    ass2_witness: tuple | None

    @property
    def ok(self) -> bool:
        return self.ass1_ok and self.ass2_ok


def _validation_points(sym: Symbol) -> np.ndarray:
    axes = [np.linspace(-CHECK_EXTENT, CHECK_EXTENT, CHECK_POINTS_PER_AXIS)] * sym.ndim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng(CHECK_SEED)
    extra = rng.uniform(-CHECK_EXTENT, CHECK_EXTENT, size=(CHECK_RANDOM_POINTS, sym.ndim))
    return np.vstack([pts, extra])


def check_assumptions(sym: Symbol) -> AssumptionReport:
    """Sampled check of the two-sided growth bound and transverse monotonicity.

    Never raises: returns a report; on a failed bound the corresponding witness
    is the violating frequency.  The check is a gate against obviously bad
    custom symbols, not a proof; ``Problem.make`` runs it on every ``custom``
    symbol, while the shipped kinds rest on their analytic bounds.
    """
    pts = _validation_points(sym)
    p = np.asarray(sym.evaluate(list(pts.T)), dtype=float)
    r2s = np.sum(pts**2, axis=1) ** sym.order
    slack = 1e-9 * (1.0 + np.abs(p))
    lower_bad = p < sym.lower_coef * r2s + sym.lower_shift - slack
    upper_bad = p > sym.upper_coef * r2s + sym.upper_shift + slack
    ass1_bad = lower_bad | upper_bad
    ass1_ok = not bool(np.any(ass1_bad))
    ass1_witness = None if ass1_ok else tuple(pts[int(np.argmax(ass1_bad))])

    ass2_ok, ass2_witness = _check_transverse_monotone(sym)
    return AssumptionReport(ass1_ok, ass2_ok, ass1_witness, ass2_witness)


def _transverse_basis(sym: Symbol) -> list[np.ndarray]:
    dirs = []
    for i in range(sym.ndim):
        if i == sym.axis_index:
            continue
        d = np.zeros(sym.ndim)
        d[i] = 1.0
        dirs.append(d)
    return dirs


def _check_transverse_monotone(sym: Symbol):
    if sym.ndim == 1:
        return True, None
    e = sym.axis
    basis = _transverse_basis(sym)
    rng = np.random.default_rng(CHECK_SEED + 1)
    dirs = list(basis)
    if len(basis) > 1:
        mix = rng.normal(size=len(basis))
        mix /= np.linalg.norm(mix)
        dirs.append(sum(c * d for c, d in zip(mix, basis)))

    ts = np.linspace(-CHECK_EXTENT, CHECK_EXTENT, CHECK_AXIAL_SAMPLES)
    radii = np.linspace(0.0, CHECK_EXTENT, CHECK_RADIAL_SAMPLES + 1)
    for t in ts:
        profiles = []
        for d in dirs:
            pts = t * e[None, :] + radii[:, None] * d[None, :]
            prof = np.asarray(sym.evaluate(list(pts.T)), dtype=float)
            diffs = np.diff(prof)
            if np.any(diffs <= 0):
                j = int(np.argmax(diffs <= 0))
                return False, tuple(pts[j + 1])
            profiles.append(prof)
        # cylindricity: all transverse directions must agree at equal radius
        for prof in profiles[1:]:
            dev = np.abs(prof - profiles[0])
            tol = 1e-9 * (1.0 + np.abs(profiles[0]))
            if np.any(dev > tol):
                j = int(np.argmax(dev > tol))
                return False, tuple(t * e + radii[j] * dirs[0])
    return True, None


# -- dispersion floor Sigma_v --------------------------------------------------

# Bracketed minimization: sample [-extent, extent] (doubling the extent from
# FLOOR_INITIAL_EXTENT up to FLOOR_MAX_EXTENT until the minimum is interior),
# then polish to FLOOR_XTOL; a value below FLOOR_MIN counts as unbounded.
FLOOR_INITIAL_EXTENT = 4.0
FLOOR_MAX_EXTENT = 1.0e9
FLOOR_SAMPLES = 257
FLOOR_XTOL = 1e-12
FLOOR_MIN = -1.0e12


def _golden_min(f, a: float, b: float, xtol: float) -> float:
    """Golden-section minimizer of a unimodal f on [a, b] to width xtol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def dispersion_floor(bsym: BoostedSymbol) -> float:
    """Global minimum of p(xi) - v.xi (the paper-level coercivity constant).

    Requires s > 1/2, or s = 1/2 with |v| < A; otherwise the infimum may be
    -inf and a :class:`HypothesisViolatedError` is raised up front.  A kind
    with a closed form returns it; the others are searched numerically, and
    custom symbols that keep decreasing past ``FLOOR_MIN`` raise
    :class:`UnboundedBelowError`.
    """
    base = bsym.base
    speed = float(np.linalg.norm(bsym.velocity))
    if base.order < 0.5:
        raise HypothesisViolatedError("dispersion floor needs order s >= 1/2")
    if base.order == 0.5 and speed >= base.lower_coef:
        raise HypothesisViolatedError(
            "s = 1/2 requires |v| < A for a finite dispersion floor"
        )
    closed = KINDS[base.kind].floor
    if closed is not None:
        return closed(base, speed)
    return _floor_search(bsym)


def _floor_search(bsym: BoostedSymbol) -> float:
    """Numerical Sigma_v: a line search along the axis, or a simplex off it."""
    base = bsym.base
    v = np.asarray(bsym.velocity, dtype=float)
    e = base.axis
    v_par = float(v @ e)
    v_perp = v - v_par * e
    if np.linalg.norm(v_perp) > 1e-10 * (1.0 + np.linalg.norm(v)):
        return _floor_off_axis(bsym)

    def g_vec(ts):
        pts = [ts * e[i] for i in range(base.ndim)]
        return np.asarray(base.evaluate(pts), dtype=float) - v_par * ts

    def g(t):
        return float(g_vec(np.asarray([t]))[0])

    extent = FLOOR_INITIAL_EXTENT
    while True:
        ts = np.linspace(-extent, extent, FLOOR_SAMPLES)
        gs = g_vec(ts)
        i = int(np.argmin(gs))
        if gs[i] < FLOOR_MIN:
            raise UnboundedBelowError(
                f"boosted symbol drops below the floor {FLOOR_MIN:g}"
            )
        if 0 < i < len(ts) - 1:
            break
        if extent >= FLOOR_MAX_EXTENT:
            raise UnboundedBelowError(
                "no interior minimizer found before reaching the maximum search extent"
            )
        extent *= 2.0
    t_star = _golden_min(g, ts[i - 1], ts[i + 1], FLOOR_XTOL)
    return min(g(t_star), float(gs[i]))


def _floor_off_axis(bsym: BoostedSymbol) -> float:
    # velocity not parallel to the symmetry axis: coarse lattice + simplex polish
    from scipy import optimize

    n = bsym.base.ndim

    def g(x):
        return float(np.asarray(bsym.evaluate(list(np.asarray(x)[:, None]))).ravel()[0])

    extent = FLOOR_INITIAL_EXTENT
    best = None
    while True:
        axes = [np.linspace(-extent, extent, 33)] * n
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.asarray(bsym.evaluate(list(pts.T)), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < FLOOR_MIN:
            raise UnboundedBelowError("boosted symbol drops below the floor")
        on_edge = np.any(np.abs(pts[i]) >= extent * (1 - 1e-12))
        if not on_edge:
            best = pts[i]
            break
        if extent >= FLOOR_MAX_EXTENT:
            raise UnboundedBelowError("no interior minimizer within the search extent")
        extent *= 2.0
    res = optimize.minimize(g, best, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
    return float(min(res.fun, vals[i]))


def galilean_gauge(f: Field, velocity) -> Field:
    """Multiply by the boost phase exp(i v.x / 2); unitary on L2."""
    v = np.atleast_1d(np.asarray(velocity, dtype=float))
    if v.shape != (f.grid.ndim,):
        raise ValueError("velocity dimension mismatch")
    phase = np.zeros(f.grid.sizes)
    for axis, mesh in enumerate(f.grid.coord_mesh()):
        phase = phase + 0.5 * v[axis] * mesh
    return Field.from_values(f.grid, f.values * np.exp(1j * phase))
