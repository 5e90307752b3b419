"""Quick runs of the randomized suites at small trial counts; ``boostedwaves
props`` runs them at the suites' default trial counts."""

import numpy as np
import pytest
from scipy import signal

import boostedwaves.suites as suites


def test_rearrange_suite_small():
    result = suites.rearrange_suite(seed=11, trials=30)
    assert result.passed, result.violations[:3]
    assert result.checks > 0


def test_convolution_suite_small():
    result = suites.convolution_suite(seed=12, trials=30, mask_trials=20)
    assert result.passed, result.violations[:3]


@pytest.mark.parametrize("shape_a, shape_b", [
    ((7,), (12,)), ((5, 9), (8, 3)), ((63, 63), (32, 32)), ((3, 4, 5), (6, 5, 4)),
])
def test_full_convolution_matches_scipy_signal(shape_a, shape_b):
    rng = np.random.default_rng(7)
    a, b = rng.uniform(size=shape_a), rng.uniform(size=shape_b)
    want = signal.fftconvolve(a, b, mode="full")
    got = suites._convolve_full(a, b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_run_suite_dispatch():
    result = suites.run_suite("rearrange", seed=5, trials=5)
    assert result.name == "rearrange"
    assert result.passed
    with pytest.raises(ValueError, match="unknown suite 'setops'"):
        suites.run_suite("setops", seed=5)
