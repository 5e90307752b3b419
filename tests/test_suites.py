"""Quick runs of the randomized suites at small trial counts; ``boostedwaves
props`` runs them at the suites' default trial counts."""

import boostedwaves.suites as suites


def test_rearrange_suite_small():
    result = suites.rearrange_suite(seed=11, trials=30)
    assert result.passed, result.violations[:3]
    assert result.checks > 0


def test_convolution_suite_small():
    result = suites.convolution_suite(seed=12, trials=30, mask_trials=20)
    assert result.passed, result.violations[:3]


def test_setops_suite_small():
    result = suites.setops_suite(seed=13, trials=300)
    assert result.passed, result.violations[:3]


def test_run_suite_dispatch():
    result = suites.run_suite("setops", seed=5, trials=200)
    assert result.name == "setops"
    assert result.passed
