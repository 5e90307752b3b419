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

    u_{k+1} = g_k - dG c,    c = argmin ||f_k - dF c||  over real c,

with c from the small normal equations dF^T dF c = dF^T f_k (``solve``;
``lstsq`` with rcond 1e-14 only when that Gram matrix is singular), where
C^N is read as R^(2N) under Re <a, b>.  The mixing is real because the map
is only R-linear: |u|^(2 sigma) u = u^(sigma + 1) conj(u)^sigma is not
complex-differentiable, so its Jacobian near Q acts on u and conj(u)
separately, and complex c would fit a C-linear model that the map does not
have.  (On the 1D half-wave problem, v = 0.5, three random starts take
25 - 275 iterations with real c and 1,246 - 1,568 with complex c.)  Real c
also keeps the conjugation symmetry Q(x) = conj(Q(-x)), a real spectrum,
which G preserves: real combinations of real spectra stay real, while
complex coefficients let the rounding-level imaginary parts grow to 4e-11
in warm sweep rows.

A J safeguard keeps the quotient non-increasing: a candidate that raises J
by more than 1e-12 (relative) is rejected, the history is cleared, and the
plain step u_{k+1} = g_k is taken instead, halved against u_k (up to
``DAMP_LIMIT`` times) while it still raises J.  Convergence is declared on
the relative residual of the rescaled profile equation
(P_v(D) + omega) Q = |Q|^{2 sigma} Q.

The loop evaluates each state once.  One |u|^2 pass over a candidate's values
gives the L^{2 sigma + 2} mass of J and the factor |u|^{2 sigma} of the
nonlinearity; the quadratic form <(P_v + omega) u, u> is taken once from its
spectrum and w u^ = (P_v + omega) u^.  An accepted candidate carries its
spectrum, values, |u|^{2 sigma}, quadratic form and w u^ into the next
iteration, which forms |u|^{2 sigma} u, transforms it and computes only the
unit residual, subtracting the nonlinearity from w u^ in place; w u^ is
dropped there, before the next candidate is formed, so no buffer beyond the
state and its temporaries is alive when memory peaks.  The differences dF and
dG live in two fixed depth-by-2N float buffers used as rings; two real
matrix-vector products over the history give the new Gram entries and the
right side, and one more the mix dG c.  An accepted step therefore makes 2
transforms: the nonlinearity forward (its Nyquist bins zeroed by the same
table multiply) and the candidate back; a rejected one adds one per plain
step or halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolatedError, ZeroFieldError
from . import fields
from .fields import Field, Grid, flat_norm, solve_small
from .symbols import BoostedSymbol, dispersion_floor

ANDERSON_DEPTH = 5  # differences of past iterates mixed into each step
DAMP_LIMIT = 30  # halvings of a rejected step's plain update, at most


def sigma_star(order: float, ndim: int) -> float:
    """Energy-criticality threshold 2s/(n-2s), or +inf when s >= n/2."""
    if order >= ndim / 2.0:
        return math.inf
    return 2.0 * order / (ndim - 2.0 * order)


@dataclass(frozen=True)
class Problem:
    """A validated boosted ground-state problem on a fixed grid.

    ``weight`` is the spectral diagonal p(xi) - v.xi + omega, strictly
    positive.  It is built once per problem and read-only, so the residual
    worker of a symmetry report reads it without allocating it.
    """

    bsym: BoostedSymbol
    omega: float
    sigma: int
    grid: Grid
    floor: float
    weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weight = self.bsym.on_grid(self.grid) + self.omega
        weight.setflags(write=False)
        object.__setattr__(self, "weight", weight)

    @classmethod
    def make(cls, bsym: BoostedSymbol, omega: float, sigma: int, grid: Grid) -> "Problem":
        """Validate the hypotheses and compute the dispersion floor.

        Refuses, with :class:`HypothesisViolatedError`, a sigma at or above the
        energy-critical sigma_*, a symbol that :func:`symbols.dispersion_floor`
        refuses (s < 1/2, or |v| >= 1 at s = 1/2), and omega <= -Sigma_v.  The
        growth bounds need no check: every kind in :data:`symbols.KINDS` meets
        them by its formula.
        """
        base = bsym.base
        if grid.ndim != base.ndim:
            raise ValueError("grid and symbol dimensions differ")
        if not (sigma >= 1 and float(sigma).is_integer()):
            raise ValueError("sigma must be a positive integer")
        sigma = int(sigma)
        crit = sigma_star(base.order, base.ndim)
        if sigma >= crit:
            raise HypothesisViolatedError(
                f"sigma = {sigma} is energy-critical or worse (sigma_* = {crit:g})"
            )
        floor = dispersion_floor(bsym)  # also enforces s, |v| hypotheses
        if not omega > -floor:
            raise HypothesisViolatedError(
                f"requires omega > -Sigma_v; got omega = {omega:g}, Sigma_v = {floor:g}"
            )
        return cls(bsym, float(omega), sigma, grid, floor)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 5000
    init_width: float = 1.0


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


def _state(prob: Problem, spec: np.ndarray, vals: np.ndarray):
    """(J, quadratic form, |u|^(2 sigma), w u^) of the state with this spectrum and these values.

    One |u|^2 pass gives both the L^(2 sigma + 2) mass under J and the factor
    |u|^(2 sigma) of the nonlinearity; w u^, formed for the quadratic form,
    is returned for the residual of the next iteration.
    """
    mod2 = np.square(vals.real)
    mod2 += np.square(vals.imag)
    nl_mod = mod2 if prob.sigma == 1 else mod2**prob.sigma
    denom = float(np.vdot(nl_mod, mod2)) * prob.grid.cell_volume()
    if denom == 0.0:
        raise ZeroFieldError("the quotient is undefined at the zero field")
    wspec = prob.weight * spec
    quad = float(np.vdot(spec, wspec).real) * prob.grid.freq_cell_volume()
    return quad ** (prob.sigma + 1) / denom, quad, nl_mod, wspec


def _nonlinearity(grid: Grid, nl_mod: np.ndarray, vals: np.ndarray, work=None,
                  out=None) -> np.ndarray:
    """Spectrum of |u|^(2 sigma) u, given |u|^(2 sigma) in ``nl_mod`` and u in
    ``vals``, with the Nyquist bins zeroed.

    The product is formed in ``work`` and the spectrum in ``out``, each a new
    array when it is None.
    """
    return fields._phys_to_spec(grid, np.multiply(nl_mod, vals, out=work),
                                band_limited=True, out=out)


def residual_scratch(grid: Grid) -> tuple[np.ndarray, ...]:
    """Buffers for every lattice-sized temporary of a residual on ``grid``:
    one real and three complex arrays."""
    return (np.empty(grid.sizes),) + tuple(np.empty(grid.sizes, dtype=np.complex128)
                                           for _ in range(3))


def _nonlinear_spectrum(prob: Problem, u: Field, scratch) -> np.ndarray:
    """The values half of a unit residual: the spectrum of |u|^(2 sigma) u.

    |u|^(2 sigma) goes to the real buffer of ``scratch``
    (:func:`residual_scratch`), the product to its first complex buffer and
    the spectrum to its second, which is returned.  It reads only the
    values, not the spectrum.
    """
    nl_mod, work, nl_spec, _ = scratch
    vals = u.values
    np.abs(vals, out=nl_mod)
    nl_mod **= 2 * prob.sigma
    return _nonlinearity(prob.grid, nl_mod, vals, work, nl_spec)


def _residual_parts(prob: Problem, u: Field, nl_spec: np.ndarray, scratch) -> float:
    """The spectral half of a unit residual: ||w u^ - N^|| / ||w u^|| for the
    weight w = P_v + omega (``Problem.weight``) and the nonlinearity's
    spectrum ``nl_spec`` (:func:`_nonlinear_spectrum`).

    w u^ goes to the first complex buffer of ``scratch`` and the difference to
    its third; ``nl_spec`` is only read.
    """
    _, lhs, _, miss = scratch
    np.multiply(prob.weight, u.spectrum, out=lhs)
    lhs_norm = flat_norm(lhs)
    if lhs_norm == 0.0:
        raise ZeroFieldError("residual of the zero field")
    return flat_norm(np.subtract(lhs, nl_spec, out=miss)) / lhs_norm


def unit_residual(prob: Problem, Q: Field, scratch=None, nl_spec=None) -> float:
    """Relative residual of the rescaled (kappa = 1) profile equation
    (P_v + omega) Q = |Q|^(2 sigma) Q: the values half
    (:func:`_nonlinear_spectrum`), then the spectral half
    (:func:`_residual_parts`).

    ``nl_spec`` is the values half's result when the caller has formed it
    already, in the second complex buffer of ``scratch``.  With ``scratch``
    (:func:`residual_scratch` on ``prob.grid``) given, the call allocates no
    lattice-sized array.
    """
    if scratch is None:
        scratch = residual_scratch(prob.grid)
    if nl_spec is None:
        nl_spec = _nonlinear_spectrum(prob, Q, scratch)
    return _residual_parts(prob, Q, nl_spec, scratch)


def minimize(prob: Problem, init: Field | None = None,
             opts: SolveOptions | None = None) -> SolveReport:
    """Run the Anderson-accelerated fixed-point iteration to a boosted ground state.

    Each iteration mixes the map's last ``ANDERSON_DEPTH`` images into one
    candidate and accepts it only if J does not rise; otherwise the history
    is cleared and the plain step, halved while J rises, is taken (see the
    module docstring).  The trace records per iteration whether the Anderson
    candidate was accepted and how many halvings the fallback needed.

    ``init`` defaults to a Gaussian of width ``opts.init_width`` carrying the
    phase exp(i v.x / 2), which centres its spectrum at v / 2.  That start has
    u(-x) = conj(u(x)), a real spectrum, and the real Anderson mixing keeps
    the spectrum real (see the module docstring), so |u| stays even about the
    centre bin, where its peak sits.  The state is therefore returned as the
    loop holds it, with no centring and no turn of its phase: minimizers are
    unique only up to translation and a global phase, and the symmetry report
    fits both away (:func:`verify.phase_affinity`).

    Returns a report whether or not the iteration converged; non-convergence
    is flagged, not raised.  J and the unit residual are the loop's own, of
    the returned state.  Only when ``max_iter`` runs out is the residual
    computed here, as the loop never measured its last candidate.
    """
    opts = opts or SolveOptions()
    grid = prob.grid
    if init is None:
        v = np.asarray(prob.bsym.velocity)
        init = gaussian_init(grid, opts.init_width, 0.5 * v if v.any() else None)

    inv_weight = 1.0 / prob.weight
    gamma = (2.0 * prob.sigma + 1.0) / (2.0 * prob.sigma)
    dxi = grid.freq_cell_volume()

    l2 = flat_norm(init.spectrum) * math.sqrt(dxi)
    if l2 == 0.0:
        raise ZeroFieldError("zero initial field")
    spec = init.spectrum * (1.0 / l2)
    vals = fields._spec_to_phys(grid, spec)
    del init  # from here on the state is carried as arrays
    j_cur, quad, nl_mod, wspec = _state(prob, spec, vals)

    trace: list[TraceRow] = []
    converged = False
    f_prev = g_prev = None
    # Ring buffers of the last ANDERSON_DEPTH differences of f and of g, one per
    # slot, each held as its 2N floats, so d_f @ x gives the real inner products
    # Re <df_i, x> for x read as its floats; the *_fields views are the rows as spectra.
    d_f, d_g = rings = np.empty((2, ANDERSON_DEPTH, 2 * spec.size))
    d_f_fields, d_g_fields = rings.view(complex).reshape((2, ANDERSON_DEPTH) + grid.sizes)
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))  # Re <df_i, df_j>
    count = 0  # differences recorded since the history was last cleared
    iterations = 0

    for k in range(1, opts.max_iter + 1):
        iterations = k
        nl_spec = _nonlinearity(grid, nl_mod, vals)

        # The unit residual ||w u^ - N^|| / ||w u^||, formed in the state's w u^,
        # which is dropped before the candidate is formed.
        lhs_norm2 = float(np.vdot(wspec, wspec).real)
        wspec -= nl_spec
        res_unit = math.sqrt(float(np.vdot(wspec, wspec).real) / lhs_norm2)
        del wspec

        pairing = float(np.vdot(spec, nl_spec).real) * dxi
        if not pairing > 0.0:  # also a NaN state
            trace.append(TraceRow(k, j_cur, res_unit, math.nan))
            break
        stabilizer = quad / pairing
        row = TraceRow(k, j_cur, res_unit, stabilizer)
        trace.append(row)

        if res_unit <= opts.tol:
            converged = True
            break

        g = np.multiply(nl_spec, inv_weight, out=nl_spec)
        g *= stabilizer**gamma
        f = g - spec
        m = 0  # differences mixed into this step
        if f_prev is not None:
            # Write the new differences over the oldest slot; two products
            # give the Gram border <df_i, df_new> and the right side <df_i, f>.
            slot = count % ANDERSON_DEPTH
            count += 1
            m = min(count, ANDERSON_DEPTH)
            np.subtract(f, f_prev, out=d_f_fields[slot])
            np.subtract(g, g_prev, out=d_g_fields[slot])
            col = d_f[:m] @ d_f[slot]
            rhs = d_f[:m] @ f.view(np.float64).reshape(-1)
            gram[:m, slot] = col
            gram[slot, :m] = col
        f_prev, g_prev = f, g
        slack = 1e-12 * max(1.0, abs(j_cur))
        if m:
            # lstsq only where a repeated difference makes gram exactly singular
            coef = solve_small(gram[:m, :m], rhs, rcond=1e-14)
            cand = g - (coef @ d_g[:m]).view(complex).reshape(grid.sizes)
            cand_vals = fields._spec_to_phys(grid, cand)
            j_new, quad_new, nl_new, w_new = _state(prob, cand, cand_vals)
            row.accelerated = j_new <= j_cur + slack
            if not row.accelerated:
                count = 0
        if not row.accelerated:
            cand = g
            cand_vals = fields._spec_to_phys(grid, cand)
            j_new, quad_new, nl_new, w_new = _state(prob, cand, cand_vals)
            while j_new > j_cur + slack and row.halvings < DAMP_LIMIT:
                cand = 0.5 * (cand + spec)
                cand_vals = fields._spec_to_phys(grid, cand)
                j_new, quad_new, nl_new, w_new = _state(prob, cand, cand_vals)
                row.halvings += 1

        spec, vals, nl_mod, quad, j_cur, wspec = cand, cand_vals, nl_new, quad_new, j_new, w_new
    else:
        res_unit = None  # out of iterations: the last candidate was never measured

    q = Field(grid, values=vals, spectrum=spec)
    if res_unit is None:
        res_unit = unit_residual(prob, q)
    return SolveReport(Q=q, J_value=j_cur, residual=res_unit, iterations=iterations,
                       trace=trace, converged=converged)
