import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import boostedwaves as bw
from boostedwaves import symbols


def test_eval_fractional_345():
    assert float(bw.fractional(1.0, 2).evaluate((3.0, 4.0))) == pytest.approx(25.0)


def test_eval_half_wave_origin():
    assert float(bw.sqrt_klein_gordon(0.0, 1).evaluate((0.0,))) == 0.0
    assert float(bw.half_wave(1).evaluate((0.0,))) == 0.0


def test_eval_biharmonic_direct():
    # oracle: |xi|^4 - mu |xi|^2 at |xi| = 2, mu = 1
    assert float(bw.biharmonic(1.0, 1).evaluate((2.0,))) == pytest.approx(16.0 - 4.0)


def test_assumptions_fractional_exact():
    rep = bw.check_assumptions(bw.fractional(2.0, 2))
    assert rep.ass1_ok and rep.ass2_ok
    assert rep.ass1_witness is None and rep.ass2_witness is None


def test_assumptions_biharmonic_positive_mu():
    # lower bound holds with the computed shift; the radial dip near the
    # origin honestly fails strict transverse monotonicity
    rep = bw.check_assumptions(bw.biharmonic(1.0, 2))
    assert rep.ass1_ok
    assert rep.ass1_witness is None
    assert not rep.ass2_ok
    assert rep.ass2_witness is not None


def test_assumptions_reject_negative_laplacian():
    bad = bw.custom(
        lambda x: -(x**2), order=1.0, lower_coef=1.0, upper_coef=1.0,
        lower_shift=0.0, ndim=1,
    )
    rep = bw.check_assumptions(bad)
    assert not rep.ass1_ok
    assert rep.ass1_witness is not None


@pytest.mark.parametrize(
    "sym",
    [
        bw.fractional(0.5, 2),
        bw.fractional(1.0, 2),
        bw.fractional(2.0, 3),
        bw.biharmonic(0.0, 2),
        bw.biharmonic(-1.0, 2),
        bw.sqrt_klein_gordon(1.0, 2),
        bw.half_wave(2),
        bw.half_wave(1),
    ],
)
def test_all_shipped_kinds_pass_default_validation(sym):
    rep = bw.check_assumptions(sym)
    assert rep.ass1_ok, rep.ass1_witness
    assert rep.ass2_ok, rep.ass2_witness


def test_floor_completed_square():
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 2), (2.0, 0.0))
    assert bw.dispersion_floor(bsym) == pytest.approx(-1.0, abs=1e-8)


def test_floor_half_wave_subcritical_speed():
    bsym = bw.BoostedSymbol.make(bw.half_wave(1), 0.5)
    assert bw.dispersion_floor(bsym) == pytest.approx(0.0, abs=1e-8)


def test_floor_sqrt_klein_gordon_oracle():
    # 1D golden-section oracle on sqrt(xi^2 + 1) - 0.6 xi
    res = minimize_scalar(
        lambda t: np.sqrt(t * t + 1.0) - 0.6 * t, bracket=(-2.0, 0.0, 4.0),
        method="golden", options={"xtol": 1e-13},
    )
    assert res.fun == pytest.approx(0.8, abs=1e-10)
    bsym = bw.BoostedSymbol.make(bw.sqrt_klein_gordon(1.0, 1), 0.6)
    value = bw.dispersion_floor(bsym)
    assert value == pytest.approx(res.fun, abs=1e-8)
    assert value == pytest.approx(np.sqrt(1 - 0.36), abs=1e-8)


def test_floor_at_rest_is_grid_minimum():
    for sym in (bw.fractional(0.8, 1), bw.half_wave(2), bw.sqrt_klein_gordon(2.0, 1)):
        bsym = bw.BoostedSymbol.make(sym, (0.0,) * sym.ndim)
        expected = 2.0 if sym.kind == "sqrt_klein_gordon" else 0.0
        assert bw.dispersion_floor(bsym) == pytest.approx(expected, abs=1e-8)


def test_floor_rejects_fast_half_wave():
    with pytest.raises(bw.HypothesisViolatedError):
        bw.dispersion_floor(bw.BoostedSymbol.make(bw.half_wave(1), 1.0))
    with pytest.raises(bw.HypothesisViolatedError):
        bw.dispersion_floor(bw.BoostedSymbol.make(bw.half_wave(1), 1.5))


def test_floor_unbounded_below():
    bad = bw.custom(
        lambda x: -(x**2), order=1.0, lower_coef=1.0, upper_coef=1.0,
        lower_shift=0.0, ndim=1,
    )
    with pytest.raises(bw.UnboundedBelowError):
        bw.dispersion_floor(bw.BoostedSymbol.make(bad, 0.0))


def test_floor_off_axis_velocity():
    # full search agrees with the separable closed form for -Laplacian
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 2), (1.0, 1.0))
    assert bw.dispersion_floor(bsym) == pytest.approx(-0.5, abs=1e-7)


@pytest.mark.parametrize(
    "sym",
    [
        bw.fractional(0.5, 1),
        bw.fractional(0.6, 1),
        bw.fractional(0.75, 2),
        bw.fractional(1.0, 2),
        bw.fractional(2.0, 1),
        bw.fractional(1.5, 3),
        bw.half_wave(1),
        bw.half_wave(2),
        bw.sqrt_klein_gordon(0.0, 1),
        bw.sqrt_klein_gordon(0.5, 1),
        bw.sqrt_klein_gordon(2.0, 2),
    ],
    ids=lambda sym: f"{sym.kind}-{dict(sym.params)}-{sym.ndim}d",
)
def test_closed_form_floor_matches_numerical_search(sym):
    # The closed form is taken along v; the search runs along the axis when v
    # lies on it and off it (simplex) otherwise.
    speeds = (0.0, 0.3, 0.95) + ((1.7,) if sym.order > 0.5 else ())
    directions = [np.eye(sym.ndim)[0], -np.eye(sym.ndim)[0]]
    if sym.ndim > 1:
        directions.append(np.ones(sym.ndim) / np.sqrt(sym.ndim))
    for speed in speeds:
        for direction in directions:
            bsym = bw.BoostedSymbol.make(sym, tuple(speed * direction))
            closed = bw.dispersion_floor(bsym)
            assert closed == pytest.approx(symbols._floor_search(bsym), rel=1e-12, abs=1e-12)
            if speed == 0.0:
                assert math.copysign(1.0, closed) == 1.0  # +0, not -0


def test_floor_search_kept_where_no_closed_form(monkeypatch):
    searched = []
    real = symbols._floor_search
    monkeypatch.setattr(symbols, "_floor_search", lambda bsym: searched.append(bsym) or real(bsym))
    for sym in (bw.fractional(1.0, 1), bw.half_wave(1), bw.sqrt_klein_gordon(1.0, 1)):
        bw.dispersion_floor(bw.BoostedSymbol.make(sym, 0.5))
    assert searched == []
    custom = bw.custom(lambda x: x**2, order=1.0, lower_coef=1.0, upper_coef=1.0,
                       lower_shift=0.0)
    for sym in (bw.biharmonic(1.0, 1), custom):
        bw.dispersion_floor(bw.BoostedSymbol.make(sym, 0.5))
    assert [b.base.kind for b in searched] == ["biharmonic", "custom"]


def test_gauge_identity_at_zero_velocity(sech_field):
    out = bw.galilean_gauge(sech_field, (0.0,))
    assert np.array_equal(out.values, sech_field.values)


def test_gauge_preserves_modulus_and_l2(gauss_field):
    out = bw.galilean_gauge(gauss_field, (1.3,))
    assert np.max(np.abs(np.abs(out.values) - np.abs(gauss_field.values))) < 1e-15
    assert bw.norm_l2(out) == pytest.approx(bw.norm_l2(gauss_field), rel=1e-15)


def test_gauge_inverse_roundtrip(gauss_field):
    out = bw.galilean_gauge(bw.galilean_gauge(gauss_field, (0.9,)), (-0.9,))
    assert np.max(np.abs(out.values - gauss_field.values)) < 1e-14


def test_boosted_symbol_pointwise():
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 2), (0.5, 0.0))
    xi = (np.array([1.0]), np.array([2.0]))
    assert float(bsym.evaluate(xi)[0]) == pytest.approx(5.0 - 0.5)
