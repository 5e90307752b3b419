import numpy as np
import pytest
from scipy.integrate import quad

import boostedwaves as bw


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
    # half-wave at |v| >= A rejected
    with pytest.raises(bw.HypothesisViolatedError):
        bw.Problem.make(bw.BoostedSymbol.make(bw.half_wave(1), 1.0), 1.0, 1, grid_1d)


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
    assert err / bw.norm_l2(rep.Q) <= 1e-6
    assert rep.J_value == pytest.approx(bw.weinstein(classical_problem, rep.Q), abs=1e-10)


def test_minimize_zero_init_rejected(classical_problem, grid_1d):
    zero = bw.Field.from_values(grid_1d, np.zeros(grid_1d.sizes[0], dtype=complex))
    with pytest.raises(bw.ZeroFieldError):
        bw.minimize(classical_problem, init=zero)


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
    gauged = bw.galilean_gauge(classical_report.Q, (v,))
    assert bw.profile_residual(prob_b, gauged) <= 1e-6
    diff = np.abs(rep_b.Q.values) - np.abs(classical_report.Q.values)
    rel = np.sqrt(np.sum(diff**2) * grid_1d.cell_volume()) / bw.norm_l2(rep_b.Q)
    assert rel <= 1e-6


def test_profile_residual_sech_is_solution(classical_problem, sech_field):
    # substitution identity: -Q'' + Q - Q^3 = 0 for Q = sqrt(2) sech
    assert bw.unit_residual(classical_problem, sech_field) <= 1e-8
    assert bw.profile_residual(classical_problem, sech_field) <= 1e-8


def test_profile_residual_generic_field_is_large(classical_problem, gauss_field):
    assert bw.profile_residual(classical_problem, gauss_field) > 0.05


def test_profile_residual_of_converged_output(classical_problem, classical_report):
    assert bw.profile_residual(classical_problem, classical_report.Q) <= 1e-10


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
    c = bw.centroid(q)
    assert np.max(np.abs(c)) < q.grid.spacing(0) / 2
    dc = q.spectrum[0]
    assert abs(dc.imag) <= 1e-12 * abs(dc)
    assert dc.real >= 0


def test_halfwave_solve(halfwave_problem, halfwave_report):
    rep = halfwave_report
    assert rep.converged
    assert rep.residual <= 1e-10
    assert bw.profile_residual(halfwave_problem, rep.Q) <= 1e-10
    # Every step but the first has a history, so a plain step after it is a
    # rejected Anderson candidate: the safeguard's fallback runs here.
    steps = rep.trace[1:-1]
    assert any(row.accelerated for row in steps)
    assert any(not row.accelerated for row in steps)
