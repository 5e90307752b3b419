"""Reference quantities that only the tests compare against, and the random
fields of the seeded suites.

The package computes none of these on a run: ``verify`` gates on the unit
residual (:func:`boostedwaves.unit_residual`), not on the fitted one below,
the quadratic form below weighs |u_hat|^2 by the same table the solver
weighs its spectra with (:meth:`boostedwaves.BoostedSymbol.on_grid`), and a
solve reports the J its loop took for the returned state, which
:func:`weinstein` below evaluates afresh.
"""

import numpy as np

import boostedwaves as bw
from boostedwaves import solver
from boostedwaves.fields import flat_norm, real_dot


def weinstein(prob: bw.Problem, u: bw.Field) -> float:
    """The quotient J(u) the solver minimizes, as its loop evaluates it."""
    return solver._state(prob, u.spectrum, u.values)[0]


def profile_residual(prob: bw.Problem, Q: bw.Field) -> float:
    """Least-squares-optimal relative residual of the profile equation: the
    defect of (P_v + omega) Q = kappa |Q|^(2 sigma) Q at the best kappa,
    relative to ||(P_v + omega) Q||."""
    vals = Q.values
    nl_spec = solver._nonlinearity(prob.grid, np.abs(vals) ** (2 * prob.sigma), vals)
    lhs = prob.weight * Q.spectrum
    lhs_norm = flat_norm(lhs)
    nl_norm2 = real_dot(nl_spec, nl_spec)
    if nl_norm2 == 0.0:
        return 1.0
    kappa = real_dot(nl_spec, lhs) / nl_norm2
    return flat_norm(lhs - kappa * nl_spec) / lhs_norm


def norm_l2(f: bw.Field) -> float:
    """Quadrature L2 norm of the values."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume()))


def norm_lp(f: bw.Field, p) -> float:
    """L^p quadrature norm of the values for p >= 1, the max norm for p = inf."""
    mod = np.abs(f.values)
    if p == np.inf:
        return float(mod.max())
    return float((np.sum(mod**p) * f.grid.cell_volume()) ** (1.0 / p))


def quad_form(f: bw.Field, bsym: bw.BoostedSymbol, omega: float) -> float:
    """<(P_v + omega) u, u> = sum (p(xi) - v.xi + omega) |u_hat|^2 dxi^n."""
    weight = bsym.on_grid(f.grid) + omega
    return real_dot(np.abs(f.spectrum) ** 2, weight) * f.grid.freq_cell_volume()


def nyquist_mask(grid: bw.Grid) -> np.ndarray:
    """True on the FFT-order bins that carry a Nyquist index on some axis."""
    return np.logical_or.reduce([k == n // 2 for k, n in zip(np.indices(grid.sizes), grid.sizes)])


def galilean_gauge(f: bw.Field, velocity) -> bw.Field:
    """Multiply by the boost phase exp(i v.x / 2); unitary on L2."""
    v = np.atleast_1d(np.asarray(velocity, dtype=float))
    if v.shape != (f.grid.ndim,):
        raise ValueError("velocity dimension mismatch")
    phase = np.zeros(f.grid.sizes)
    for axis, mesh in enumerate(f.grid.coord_mesh()):
        phase = phase + 0.5 * v[axis] * mesh
    return bw.Field.from_values(f.grid, f.values * np.exp(1j * phase))


def random_field(grid: bw.Grid, rng, width_factor: float = 3.0) -> bw.Field:
    """Random smooth complex field built from a decaying random spectrum."""
    xi2 = np.zeros(grid.sizes)
    for mesh in grid.freq_mesh():
        xi2 = xi2 + mesh**2
    xi_max = max(grid.freq_step(i) * grid.sizes[i] / 2 for i in range(grid.ndim))
    w = xi_max / width_factor
    envelope = np.exp(-xi2 / (2.0 * w * w))
    spec = (rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)) * envelope
    spec[nyquist_mask(grid)] = 0.0
    return bw.Field.from_spectrum(grid, spec)
