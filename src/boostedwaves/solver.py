"""Ground-state computation by minimizing the boosted Weinstein quotient.

The quotient  J(u) = <u, (P_v(D) + omega) u>^(sigma+1) / ||u||_{2 sigma + 2}^{2 sigma + 2}
is minimized with a stabilized fixed-point map applied spectrally:

    G(u_k)  = M_k^gamma (P_v(D) + omega)^{-1} [ |u_k|^{2 sigma} u_k ],
    M_k     = <(P_v(D) + omega) u_k, u_k> / <|u_k|^{2 sigma} u_k, u_k>,
    gamma   = (2 sigma + 1) / (2 sigma),

the standard convergent scheme for homogeneous nonlinearities of degree
2 sigma + 1 (Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42, 2004).  The
inverse is exact in Fourier space; the hypothesis omega > -Sigma_v keeps the
diagonal weight strictly positive.

The map converges only linearly, so each step is Anderson-accelerated (type
II, Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  With g_k = G(u_k) and the
defect f_k = g_k - u_k, the differences of f and g over the last
``ANDERSON_DEPTH`` steps form the columns of dF and dG; the candidate is

    u_{k+1} = g_k - dG c,    c = argmin ||f_k - dF c||,

with c from the small normal equations dF^H dF c = dF^H f_k (``lstsq``,
rcond 1e-14).  A J safeguard keeps the quotient non-increasing: a candidate
that raises J by more than 1e-12 (relative) is rejected, the history is
cleared, and the plain step u_{k+1} = g_k is taken instead, halved against
u_k (up to ``damp_limit`` times) while it still raises J.  Convergence is
declared on the relative residual of the rescaled profile equation
(P_v(D) + omega) Q = |Q|^{2 sigma} Q.

Converged states are canonicalized: the modulus centroid is moved to the
origin (integer roll plus exact fractional spectral shifts) and the global
phase is rotated so the DC spectral coefficient is real and nonnegative.
Minimizers are unique only up to these transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolatedError, ZeroFieldError
from .fields import Field, Grid, norm_l2, norm_lp
from .symbols import BoostedSymbol, FloorSearch, dispersion_floor

ANDERSON_DEPTH = 5  # differences of past iterates mixed into each step


def sigma_star(order: float, ndim: int) -> float:
    """Energy-criticality threshold 2s/(n-2s), or +inf when s >= n/2."""
    if order >= ndim / 2.0:
        return math.inf
    return 2.0 * order / (ndim - 2.0 * order)


@dataclass(frozen=True)
class Problem:
    """A validated boosted ground-state problem on a fixed grid."""

    bsym: BoostedSymbol
    omega: float
    sigma: int
    grid: Grid
    floor: float

    @classmethod
    def make(cls, bsym: BoostedSymbol, omega: float, sigma: int, grid: Grid,
             search: FloorSearch | None = None) -> "Problem":
        base = bsym.base
        if grid.ndim != base.ndim:
            raise ValueError("grid and symbol dimensions differ")
        sigma = int(sigma)
        if sigma < 1:
            raise ValueError("sigma must be a positive integer")
        crit = sigma_star(base.order, base.ndim)
        if sigma >= crit:
            raise HypothesisViolatedError(
                f"sigma = {sigma} is energy-critical or worse (sigma_* = {crit:g})"
            )
        floor = dispersion_floor(bsym, search)  # also enforces s, |v| hypotheses
        if not omega > -floor:
            raise HypothesisViolatedError(
                f"requires omega > -Sigma_v; got omega = {omega:g}, Sigma_v = {floor:g}"
            )
        return cls(bsym, float(omega), sigma, grid, floor)

    def weight(self) -> np.ndarray:
        """Spectral diagonal p(xi) - v.xi + omega, strictly positive."""
        w = np.broadcast_to(
            self.bsym.evaluate(self.grid.freq_mesh()), self.grid.sizes
        ).copy()
        return w + self.omega


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 5000
    damp_limit: int = 30
    init_width: float = 1.0
    init_phase: tuple[float, ...] | None = None  # None: v/2 along the boost


@dataclass
class TraceRow:
    """State at iterate k and how the step to iterate k + 1 was taken.

    ``accelerated`` is true when the Anderson candidate was accepted;
    ``halvings`` counts the halvings of the plain step taken instead.
    """

    iteration: int
    quotient: float
    residual: float
    stabilizer: float
    halvings: int = 0
    accelerated: bool = False


@dataclass
class SolveReport:
    Q: Field
    J_value: float
    residual: float
    iterations: int
    trace: list[TraceRow]
    converged: bool


def gaussian_init(grid: Grid, width: float = 1.0, phase=None) -> Field:
    """Centered Gaussian bump, optionally with a linear phase exp(i beta.x)."""
    r2 = np.zeros(grid.sizes)
    for mesh in grid.coord_mesh():
        r2 = r2 + mesh**2
    vals = np.exp(-r2 / (2.0 * width**2)).astype(np.complex128)
    if phase is not None:
        beta = np.atleast_1d(np.asarray(phase, dtype=float))
        arg = np.zeros(grid.sizes)
        for axis, mesh in enumerate(grid.coord_mesh()):
            arg = arg + beta[axis] * mesh
        vals = vals * np.exp(1j * arg)
    return Field.from_values(grid, vals)


def weinstein(prob: Problem, u: Field, weight: np.ndarray | None = None) -> float:
    """The minimized quotient; scale invariant and positive away from zero."""
    if weight is None:
        weight = prob.weight()
    p = 2 * prob.sigma + 2
    denom = norm_lp(u, p) ** p
    if denom == 0.0:
        raise ZeroFieldError("the quotient is undefined at the zero field")
    dxi = prob.grid.freq_cell_volume()
    quad = float(np.sum(weight * np.abs(u.spectrum) ** 2)) * dxi
    return float(quad ** (prob.sigma + 1) / denom)


def _nonlinearity(prob: Problem, u: Field) -> Field:
    vals = u.values
    out = np.abs(vals) ** (2 * prob.sigma) * vals
    return Field.from_values(prob.grid, out).zero_nyquist()


def _residual_parts(prob: Problem, u: Field, weight: np.ndarray,
                    nl_spec: np.ndarray | None = None):
    """Relative defects of (P_v + omega) Q = kappa |Q|^(2 sigma) Q.

    Returns (optimal-kappa residual, kappa, unit-kappa residual), all relative
    to ||(P_v + omega) Q||.
    """
    if nl_spec is None:
        nl_spec = _nonlinearity(prob, u).spectrum
    lhs = weight * u.spectrum
    lhs_norm = float(np.linalg.norm(lhs))
    if lhs_norm == 0.0:
        raise ZeroFieldError("residual of the zero field")
    nl_norm2 = float(np.sum(np.abs(nl_spec) ** 2))
    if nl_norm2 == 0.0:
        return 1.0, 0.0, 1.0
    kappa = float(np.real(np.vdot(nl_spec, lhs)) / nl_norm2)
    res_opt = float(np.linalg.norm(lhs - kappa * nl_spec)) / lhs_norm
    res_unit = float(np.linalg.norm(lhs - nl_spec)) / lhs_norm
    return res_opt, kappa, res_unit


def profile_residual(prob: Problem, Q: Field) -> float:
    """Least-squares-optimal relative residual of the profile equation."""
    res_opt, _, _ = _residual_parts(prob, Q, prob.weight())
    return res_opt


def unit_residual(prob: Problem, Q: Field) -> float:
    """Relative residual of the rescaled (kappa = 1) profile equation."""
    _, _, res_unit = _residual_parts(prob, Q, prob.weight())
    return res_unit


def centroid(f: Field) -> np.ndarray:
    """First moment of |f|^2 in centered coordinates."""
    w = np.abs(f.values) ** 2
    total = float(w.sum())
    if total == 0.0:
        raise ZeroFieldError("centroid of the zero field")
    out = np.empty(f.grid.ndim)
    for axis, mesh in enumerate(f.grid.coord_mesh()):
        out[axis] = float(np.sum(w * mesh)) / total
    return out


def canonicalize(f: Field) -> Field:
    """Center the modulus centroid at the origin and make the DC bin >= 0.

    Lattice rolls and the global phase are exact (they leave profile-equation
    residuals untouched); the fractional spectral shift is applied only when
    the residual sub-cell offset is material, since it re-samples the
    nonlinearity and can surface aliasing noise on marginally resolved grids.
    """
    vals = f.values
    peak = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
    shift = [n // 2 - p for n, p in zip(f.grid.sizes, peak)]
    if any(shift):
        f = Field.from_values(f.grid, np.roll(vals, shift, axis=tuple(range(f.grid.ndim))))
    for _ in range(3):
        c = centroid(f)
        steps = c / np.array([f.grid.spacing(i) for i in range(f.grid.ndim)])
        if float(np.max(np.abs(steps))) < 0.25:
            break
        f = f.shifted(c)
    spec = f.spectrum
    dc = spec[(0,) * f.grid.ndim]
    if dc != 0:
        spec = spec * np.exp(-1j * np.angle(dc))
    return Field.from_spectrum(f.grid, spec)


def minimize(prob: Problem, init: Field | None = None,
             opts: SolveOptions | None = None) -> SolveReport:
    """Run the Anderson-accelerated fixed-point iteration to a boosted ground state.

    Each iteration mixes the map's last ``ANDERSON_DEPTH`` images into one
    candidate and accepts it only if J does not rise; otherwise the history
    is cleared and the plain step, halved while J rises, is taken (see the
    module docstring).  The trace records per iteration whether the Anderson
    candidate was accepted and how many halvings the fallback needed.

    ``init`` defaults to a unit-width Gaussian carrying the phase
    exp(i v.x / 2), which keeps the iteration off the real-spectrum subspace
    when the minimizer has nontrivial phase.  Returns a report whether or not
    the iteration converged; non-convergence is flagged, not raised.
    """
    opts = opts or SolveOptions()
    grid = prob.grid
    if init is None:
        beta = opts.init_phase
        if beta is None:
            v = np.asarray(prob.bsym.velocity)
            beta = 0.5 * v if np.linalg.norm(v) > 0 else None
        init = gaussian_init(grid, opts.init_width, beta)

    weight = prob.weight()
    gamma = (2.0 * prob.sigma + 1.0) / (2.0 * prob.sigma)
    dxi = grid.freq_cell_volume()

    u = Field.from_spectrum(grid, init.spectrum)
    if norm_l2(u) == 0.0:
        raise ZeroFieldError("zero initial field")
    u = (1.0 / norm_l2(u)) * u

    j_cur = weinstein(prob, u, weight)
    trace: list[TraceRow] = []
    converged = False
    f_prev = g_prev = None
    d_f: list[np.ndarray] = []
    d_g: list[np.ndarray] = []
    gram = np.empty((0, 0), dtype=complex)  # d_f^H d_f
    iterations = 0

    for k in range(1, opts.max_iter + 1):
        iterations = k
        nl = _nonlinearity(prob, u)
        nl_spec = nl.spectrum
        spec = u.spectrum

        _, _, res_unit = _residual_parts(prob, u, weight, nl_spec)

        quad = float(np.sum(weight * np.abs(spec) ** 2)) * dxi
        pairing = float(np.real(np.vdot(spec, nl_spec))) * dxi
        if pairing <= 0.0:
            trace.append(TraceRow(k, j_cur, res_unit, math.nan))
            break
        stabilizer = quad / pairing
        row = TraceRow(k, j_cur, res_unit, stabilizer)
        trace.append(row)

        if res_unit <= opts.tol:
            converged = True
            break

        g = stabilizer**gamma * nl_spec / weight
        f = g - spec
        if f_prev is not None:
            d_f.append(f - f_prev)
            d_g.append(g - g_prev)
            # Border the Gram matrix with the new column instead of redoing all
            # m^2 inner products; the oldest column falls off past the depth.
            col = np.array([np.vdot(a, d_f[-1]) for a in d_f])
            grown = np.empty((len(d_f),) * 2, dtype=complex)
            grown[:-1, :-1] = gram
            grown[:, -1] = col
            grown[-1] = col.conj()
            gram = grown[-ANDERSON_DEPTH:, -ANDERSON_DEPTH:]
            del d_f[:-ANDERSON_DEPTH], d_g[:-ANDERSON_DEPTH]
        f_prev, g_prev = f, g
        slack = 1e-12 * max(1.0, abs(j_cur))
        if d_f:
            rhs = np.array([np.vdot(a, f) for a in d_f])
            coef = np.linalg.lstsq(gram, rhs, rcond=1e-14)[0]
            cand = g - sum(c * dg for c, dg in zip(coef, d_g))
            cand_field = Field.from_spectrum(grid, cand)
            j_new = weinstein(prob, cand_field, weight)
            row.accelerated = j_new <= j_cur + slack
            if not row.accelerated:
                d_f.clear()
                d_g.clear()
                gram = gram[:0, :0]
        if not row.accelerated:
            cand = g
            cand_field = Field.from_spectrum(grid, cand)
            j_new = weinstein(prob, cand_field, weight)
            while j_new > j_cur + slack and row.halvings < opts.damp_limit:
                cand = 0.5 * (cand + spec)
                cand_field = Field.from_spectrum(grid, cand)
                j_new = weinstein(prob, cand_field, weight)
                row.halvings += 1

        u = cand_field
        j_cur = j_new

    q = canonicalize(u)
    _, _, res_final = _residual_parts(prob, q, weight)
    return SolveReport(
        Q=q,
        J_value=weinstein(prob, q, weight),
        residual=res_final,
        iterations=iterations,
        trace=trace,
        converged=converged,
    )
