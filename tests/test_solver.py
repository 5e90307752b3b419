import numpy as np
import pytest
from scipy.integrate import quad

import boostedwaves as bw
from boostedwaves import fields, solver
from references import galilean_gauge, norm_l2, profile_residual


def test_sigma_star_threshold():
    assert bw.sigma_star(1.0, 1) == np.inf
    assert bw.sigma_star(0.5, 1) == np.inf
    assert bw.sigma_star(0.5, 2) == pytest.approx(1.0)
    assert bw.sigma_star(1.0, 3) == pytest.approx(2.0)


def test_problem_validation(grid_1d):
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 1), 0.0)
    with pytest.raises(bw.HypothesisViolatedError):
        bw.Problem.make(bsym, -0.1, 1, grid_1d)  # omega <= -Sigma_v = 0
    with pytest.raises(ValueError):
        bw.Problem.make(bsym, 1.0, 0, grid_1d)
    # energy-critical exponent rejected: sigma_* = 1 for s=1/2 in 2D
    g2 = bw.Grid.make((32, 32), 8.0)
    bsym2 = bw.BoostedSymbol.make(bw.fractional(0.5, 2), (0.0, 0.0))
    with pytest.raises(bw.HypothesisViolatedError):
        bw.Problem.make(bsym2, 1.0, 1, g2)
    # half-wave at |v| >= 1 rejected
    with pytest.raises(bw.HypothesisViolatedError):
        bw.Problem.make(bw.BoostedSymbol.make(bw.half_wave(1), 1.0), 1.0, 1, grid_1d)


@pytest.mark.parametrize("sigma", [1.5, 1.9, 0.5, 0, np.nan, np.inf])
def test_non_integer_sigma_is_refused(grid_1d, gauss_field, sigma):
    sym = bw.fractional(1.0, 1)
    bsym = bw.BoostedSymbol.make(sym, 0.0)
    with pytest.raises(ValueError, match="sigma must be a positive integer"):
        bw.Problem.make(bsym, 1.0, sigma, grid_1d)
    with pytest.raises(ValueError, match="sigma must be a positive integer"):
        bw.energy_mass(gauss_field, sym, sigma)


def test_integral_float_sigma_is_an_int(grid_1d):
    prob = bw.Problem.make(bw.BoostedSymbol.make(bw.fractional(1.0, 1), 0.0), 1.0, 2.0, grid_1d)
    assert prob.sigma == 2 and type(prob.sigma) is int


def test_weinstein_scaling_invariance(classical_problem, gauss_field):
    base = bw.weinstein(classical_problem, gauss_field)
    for alpha in (2.0, -3.0, 1j):
        scaled = bw.Field.from_values(gauss_field.grid, alpha * gauss_field.values)
        assert bw.weinstein(classical_problem, scaled) == pytest.approx(base, rel=1e-10)


def test_weinstein_gaussian_oracle(classical_problem, gauss_field):
    # quotient = ((3/2) sqrt(pi))^2 / sqrt(pi/2) = (9/4) sqrt(2 pi)
    num, _ = quad(lambda x: (x**2 + 1.0) * np.exp(-(x**2)), -np.inf, np.inf)
    den, _ = quad(lambda x: np.exp(-2.0 * x**2), -np.inf, np.inf)
    oracle = num**2 / den
    assert oracle == pytest.approx(2.25 * np.sqrt(2 * np.pi), abs=1e-10)
    assert bw.weinstein(classical_problem, gauss_field) == pytest.approx(oracle, rel=1e-10)


def test_weinstein_sech_value(classical_problem, sech_field):
    assert bw.weinstein(classical_problem, sech_field) == pytest.approx(16.0 / 3.0, rel=1e-10)


def test_weinstein_rejects_zero(classical_problem, grid_1d):
    zero = bw.Field.from_values(grid_1d, np.zeros(grid_1d.sizes[0], dtype=complex))
    with pytest.raises(bw.ZeroFieldError):
        bw.weinstein(classical_problem, zero)


def test_minimize_classical_soliton(classical_problem, classical_report, grid_1d):
    rep = classical_report
    assert rep.converged
    assert rep.residual <= 1e-10
    assert abs(rep.J_value - 16.0 / 3.0) <= 1e-6
    x = grid_1d.coords(0)
    target = np.sqrt(2.0) / np.cosh(x)
    err = np.sqrt(np.sum((np.abs(rep.Q.values) - target) ** 2) * grid_1d.cell_volume())
    assert err / norm_l2(rep.Q) <= 1e-6
    assert rep.J_value == pytest.approx(bw.weinstein(classical_problem, rep.Q), abs=1e-10)


def test_minimize_zero_init_rejected(classical_problem, grid_1d):
    zero = bw.Field.from_values(grid_1d, np.zeros(grid_1d.sizes[0], dtype=complex))
    with pytest.raises(bw.ZeroFieldError):
        bw.minimize(classical_problem, init=zero)


def test_minimize_stops_on_a_nan_state(classical_problem, grid_1d):
    values = np.exp(-grid_1d.coords(0) ** 2).astype(complex)
    values[3] = np.nan
    report = bw.minimize(classical_problem, init=bw.Field.from_values(grid_1d, values))
    assert report.converged is False
    assert len(report.trace) == 1


def test_trace_quotient_nonincreasing(classical_report, halfwave_report, frac2d_report):
    # The J safeguard keeps accepted Anderson steps monotone too.  Ceilings are
    # ~1.5x the accelerated counts (10, 18, 13); the plain map takes 31, 77, 42.
    for rep, ceiling in ((classical_report, 15), (halfwave_report, 27), (frac2d_report, 20)):
        assert rep.iterations <= ceiling
        js = [row.quotient for row in rep.trace]
        for prev, nxt in zip(js, js[1:]):
            assert nxt <= prev + 1e-11


def test_minimize_boosted_matches_gauged_rest(grid_1d, classical_report):
    # rest problem at omega maps to the boosted problem at omega + v^2/4
    # under multiplication by exp(i v x / 2)
    v = 1.0
    sym = bw.fractional(1.0, 1)
    prob_b = bw.Problem.make(bw.BoostedSymbol.make(sym, v), 1.0 + v * v / 4.0, 1, grid_1d)
    rep_b = bw.minimize(prob_b)
    assert rep_b.converged
    assert rep_b.J_value == pytest.approx(classical_report.J_value, rel=1e-6)
    gauged = galilean_gauge(classical_report.Q, (v,))
    assert profile_residual(prob_b, gauged) <= 1e-6
    diff = np.abs(rep_b.Q.values) - np.abs(classical_report.Q.values)
    rel = np.sqrt(np.sum(diff**2) * grid_1d.cell_volume()) / norm_l2(rep_b.Q)
    assert rel <= 1e-6


def test_profile_residual_sech_is_solution(classical_problem, sech_field):
    # substitution identity: -Q'' + Q - Q^3 = 0 for Q = sqrt(2) sech
    assert bw.unit_residual(classical_problem, sech_field) <= 1e-8
    assert profile_residual(classical_problem, sech_field) <= 1e-8


def test_profile_residual_generic_field_is_large(classical_problem, gauss_field):
    assert profile_residual(classical_problem, gauss_field) > 0.05


def test_profile_residual_of_converged_output(classical_problem, classical_report):
    assert profile_residual(classical_problem, classical_report.Q) <= 1e-10


def test_quotient_translation_invariance(classical_problem, classical_report):
    shifted = bw.Field.from_values(
        classical_problem.grid, np.roll(classical_report.Q.values, 37)
    )
    assert bw.weinstein(classical_problem, shifted) == pytest.approx(
        classical_report.J_value, rel=1e-12
    )


def test_rearranged_minimizer_does_not_increase_quotient(frac2d_problem, frac2d_report):
    q = frac2d_report.Q
    j0 = frac2d_report.J_value
    rearranged = bw.fourier_rearrange(q, "axial", axis=0)
    j1 = bw.weinstein(frac2d_problem, rearranged)
    assert j1 <= j0 * (1 + 1e-9)
    rerun = bw.minimize(frac2d_problem, init=rearranged)
    assert rerun.converged
    assert rerun.J_value <= j0 * (1 + 1e-9)


def test_quotient_positive_on_solves(classical_report, halfwave_report, frac2d_report):
    for rep in (classical_report, halfwave_report, frac2d_report):
        assert rep.J_value > 0


def test_canonicalized_output_centered_dc_positive(classical_report):
    q = classical_report.Q
    c = solver._centroid(q.grid, np.abs(q.values) ** 2)
    assert np.max(np.abs(c)) < q.grid.spacing(0) / 2
    dc = q.spectrum[0]
    assert abs(dc.imag) <= 1e-12 * abs(dc)
    assert dc.real >= 0


def test_halfwave_solve(halfwave_problem, halfwave_report):
    rep = halfwave_report
    assert rep.converged
    assert rep.residual <= 1e-10
    assert profile_residual(halfwave_problem, rep.Q) <= 1e-10
    # Every step but the first has a history, so a plain step after it is a
    # rejected Anderson candidate: the safeguard's fallback runs here.
    steps = rep.trace[1:-1]
    assert any(row.accelerated for row in steps)
    assert any(not row.accelerated for row in steps)


# Cold solves at the default options (omega = 1, sigma = 1): the iteration
# count, the step taken from every trace row but the last ("A": the Anderson
# candidate was accepted; a digit: the halvings of the plain step taken
# instead) and J.  The loop's bookkeeping may be reorganised for speed, but
# the accept/reject sequence and the iteration count must stay exactly these.
PINNED_SOLVES = {
    "fractional-1d": (bw.fractional(1.0, 1), 0.0, 10, "0AAAAAAAA", 5.333333333333332),
    "half_wave-1d": (bw.half_wave(1), 0.5, 18, "0AAAA0AAAAAAAAAAA", 3.8296714004004637),
    "biharmonic-1d": (bw.biharmonic(1.0, 1), 0.5, 14, "0AAA0AAAAAAAA", 1.7704527019706076),
    "sqrt_klein_gordon-1d": (bw.sqrt_klein_gordon(1.0, 1), 0.3, 17, "0AAAA0AAAAAAAAAA",
                             6.4607172959946775),
    "fractional-s0.75-2d": (bw.fractional(0.75, 2), (0.3, 0.0), 17, "0AAAA0AAAAAAAAAA",
                           16.11464475057146),
}


@pytest.mark.parametrize("case", sorted(PINNED_SOLVES))
def test_cold_solve_steps_and_quotient_are_pinned(case, grid_1d):
    sym, v, iterations, steps, j_value = PINNED_SOLVES[case]
    grid = grid_1d if sym.ndim == 1 else bw.Grid.make((128, 128), 8 * np.pi)
    rep = bw.minimize(bw.Problem.make(bw.BoostedSymbol.make(sym, v), 1.0, 1, grid))
    assert rep.converged
    assert rep.iterations == iterations
    taken = "".join("A" if row.accelerated else str(row.halvings) for row in rep.trace[:-1])
    assert taken == steps
    assert rep.J_value == pytest.approx(j_value, rel=1e-13)


def _random_start(grid, seed):
    """Three off-centre Gaussians with random widths, tilts and phases."""
    x = grid.coords(0)
    rng = np.random.default_rng(seed)
    start = np.zeros(x.size, dtype=complex)
    for _ in range(3):
        centre, width, tilt, phase = rng.uniform([-3, 0.7, -1, 0], [3, 1.5, 1, 2 * np.pi])
        start += np.exp(-((x - centre) / width) ** 2 / 2 + 1j * (tilt * x + phase))
    return bw.Field.from_values(grid, start)


def test_converged_is_judged_on_the_returned_state(grid_1d):
    # From three off-centre, tilted Gaussians the loop reaches tol, but the
    # fractional shift of canonicalize resamples the off-centre state, and the
    # returned state's residual is about 2e-7: not converged.
    prob = bw.Problem.make(bw.BoostedSymbol.make(bw.fractional(1.0, 1), 0.0), 1.0, 2, grid_1d)
    rep = bw.minimize(prob, _random_start(grid_1d, 2))
    assert rep.trace[-1].residual <= 1e-10
    assert rep.residual > 1e-8
    assert not rep.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_halfwave_random_start_reaches_the_ground_state(halfwave_problem, halfwave_report,
                                                        seed):
    # The map is only R-linear (|u|^2 u involves conj(u)), so Anderson mixing
    # with real coefficients fits it; complex ones took 1,246 - 1,568
    # iterations from these starts.  Real mixing takes 25 - 275.
    rep = bw.minimize(halfwave_problem, _random_start(halfwave_problem.grid, seed))
    assert rep.converged
    assert rep.iterations <= 400
    assert rep.J_value == pytest.approx(halfwave_report.J_value, rel=1e-12, abs=0.0)


def test_minimize_transforms_go_through_module_pair(classical_problem, classical_report,
                                                    monkeypatch):
    # Per-layer FFT tracing wraps fields._phys_to_spec / fields._spec_to_phys;
    # every transform of a solve must be looked up through those bindings.
    calls = {}
    for name in ("_phys_to_spec", "_spec_to_phys"):
        def counted(grid, arr, _name=name, _inner=getattr(fields, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(grid, arr, **kwargs)
        monkeypatch.setattr(fields, name, counted)
    rep = bw.minimize(classical_problem)
    assert rep.iterations == classical_report.iterations
    assert calls.get("_phys_to_spec", 0) > 0 and calls.get("_spec_to_phys", 0) > 0
    assert 1.5 * rep.iterations <= sum(calls.values()) <= 3 * rep.iterations
