import threading

import numpy as np
import pytest

import boostedwaves as bw


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    # A symmetry report joins its worker before returning; no test may end
    # with a thread it started.
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture(scope="session")
def grid_1d():
    return bw.Grid.make(1024, 20 * np.pi)


@pytest.fixture(scope="session")
def sech_field(grid_1d):
    x = grid_1d.coords(0)
    return bw.Field.from_values(grid_1d, (np.sqrt(2.0) / np.cosh(x)).astype(complex))


@pytest.fixture(scope="session")
def gauss_field(grid_1d):
    x = grid_1d.coords(0)
    return bw.Field.from_values(grid_1d, np.exp(-(x**2) / 2).astype(complex))


@pytest.fixture(scope="session")
def classical_problem(grid_1d):
    return bw.Problem.make(
        bw.BoostedSymbol.make(bw.fractional(1.0, 1), 0.0), 1.0, 1, grid_1d
    )


@pytest.fixture(scope="session")
def classical_report(classical_problem):
    report = bw.minimize(classical_problem)
    assert report.converged
    return report


@pytest.fixture(scope="session")
def halfwave_problem(grid_1d):
    return bw.Problem.make(
        bw.BoostedSymbol.make(bw.half_wave(1), 0.5), 1.0, 1, grid_1d
    )


@pytest.fixture(scope="session")
def halfwave_report(halfwave_problem):
    report = bw.minimize(halfwave_problem)
    assert report.converged
    return report


@pytest.fixture(scope="session")
def frac2d_problem():
    grid = bw.Grid.make((128, 128), 8 * np.pi)
    return bw.Problem.make(
        bw.BoostedSymbol.make(bw.fractional(1.0, 2), (0.3, 0.0)), 1.0, 1, grid
    )


@pytest.fixture(scope="session")
def frac2d_report(frac2d_problem):
    report = bw.minimize(frac2d_problem)
    assert report.converged
    return report
