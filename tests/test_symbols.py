import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import boostedwaves as bw
from references import galilean_gauge, norm_l2


def test_eval_fractional_345():
    assert float(bw.fractional(1.0, 2).evaluate((3.0, 4.0))) == pytest.approx(25.0)


def test_eval_half_wave_origin():
    assert float(bw.sqrt_klein_gordon(0.0, 1).evaluate((0.0,))) == 0.0
    assert float(bw.half_wave(1).evaluate((0.0,))) == 0.0


def test_eval_biharmonic_direct():
    # oracle: |xi|^4 - mu |xi|^2 at |xi| = 2, mu = 1
    assert float(bw.biharmonic(1.0, 1).evaluate((2.0,))) == pytest.approx(16.0 - 4.0)


# Each shipped kind in one to three dimensions; the biharmonic symbols with
# mu > 0 are the named exception to monotonicity.
SHIPPED = [
    bw.fractional(0.5, 2),
    bw.fractional(1.0, 2),
    bw.fractional(2.0, 2),
    bw.fractional(2.0, 3),
    bw.biharmonic(0.0, 2),
    bw.biharmonic(-1.0, 2),
    bw.biharmonic(1.0, 2),
    bw.biharmonic(2.5, 3),
    bw.sqrt_klein_gordon(1.0, 2),
    bw.sqrt_klein_gordon(0.0, 3),
    bw.half_wave(2),
    bw.half_wave(1),
]


def _label(sym):
    return f"{sym.kind}-{dict(sym.params)}-{sym.ndim}d"


@pytest.mark.parametrize("sym", SHIPPED, ids=_label)
def test_shipped_kind_is_radial_and_increasing(sym):
    # p along rays in several directions: equal at equal |xi|, and strictly
    # increasing in |xi|, except that biharmonic with mu > 0 dips for
    # |xi|^2 < mu / 2 (its minimum -mu^2 / 4 lies on that sphere)
    n = sym.ndim
    directions = [np.eye(n)[0], -np.eye(n)[n - 1]]
    if n > 1:
        directions += [np.ones(n) / np.sqrt(n), np.array([0.6, -0.8, 0.0][:n])]
    radii = np.linspace(0.0, 16.0, 161)
    profiles = [np.asarray(sym.evaluate(list(radii * d[:, None])), dtype=float)
                for d in directions]
    for prof in profiles[1:]:
        assert prof == pytest.approx(profiles[0], rel=1e-13, abs=1e-13)
    dip = sym.param("mu") / 2.0 if sym.kind == "biharmonic" else 0.0
    inner, outer = radii**2 < dip, radii**2 > dip
    for prof in profiles:
        assert np.all(np.diff(prof[outer]) > 0)
        assert np.all(np.diff(prof[inner]) < 0)
    if dip > 0:
        assert profiles[0][inner].size > 1 and profiles[0].min() >= -dip * dip


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
    # every kind of order 1/2 grows like |xi|: |v| >= 1 is refused for each
    for sym in (bw.half_wave(1), bw.fractional(0.5, 1), bw.sqrt_klein_gordon(1.0, 1)):
        for speed in (1.0, 1.5):
            with pytest.raises(bw.HypothesisViolatedError, match=r"\|v\| < 1"):
                bw.dispersion_floor(bw.BoostedSymbol.make(sym, speed))
    with pytest.raises(bw.HypothesisViolatedError, match=r"\|v\| < 1"):
        bw.dispersion_floor(bw.BoostedSymbol.make(bw.half_wave(2), (0.6, 0.8)))


def test_floor_off_axis_velocity():
    # full search agrees with the separable closed form for -Laplacian
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 2), (1.0, 1.0))
    assert bw.dispersion_floor(bsym) == pytest.approx(-0.5, abs=1e-7)


def _radial_minimum(sym, direction, speed):
    """min over r >= 0 of p(r d) - speed r on the ray along ``direction``, by
    bounded Brent on [0, 20] (every case below has its minimizer inside)
    and the endpoint r = 0."""
    def g(r):
        return float(sym.evaluate(list(r * direction))) - speed * r

    res = minimize_scalar(g, bounds=(0.0, 20.0), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 2000})
    assert res.success
    return min(res.fun, g(0.0))


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
    ] + [bw.biharmonic(mu, n) for mu in (-1.0, 0.0, 1.0, 2.5) for n in (1, 2, 3)],
    ids=_label,
)
def test_closed_form_floor_matches_numerical_search(sym):
    # The closed form is taken at |v|; the reference minimizes p - v.xi along
    # the ray of v, on the axis (either way) and on the diagonal.
    speeds = (0.0, 0.3, 0.95) + ((1.7,) if sym.order > 0.5 else ())
    directions = [np.eye(sym.ndim)[0], -np.eye(sym.ndim)[0]]
    if sym.ndim > 1:
        directions.append(np.ones(sym.ndim) / np.sqrt(sym.ndim))
    for speed in speeds:
        for direction in directions:
            closed = bw.dispersion_floor(bw.BoostedSymbol.make(sym, tuple(speed * direction)))
            reference = _radial_minimum(sym, direction, speed)
            assert closed == pytest.approx(reference, rel=1e-12, abs=1e-12)
            if closed == 0.0:
                assert math.copysign(1.0, closed) == 1.0  # +0, not -0


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_biharmonic_floor_exact_oracles(ndim):
    # mu = 0 is the fractional symbol with s = 2: Sigma_v = -3 (|v| / 4)^(4/3);
    # so, to rounding, is a mu too small to move it (no 0 / 0 or inf - inf)
    for mu, speed in itertools.product((0.0, 1e-300, -1e-300), (0.0, 0.3, 0.95, 1.7, 40.0)):
        v = tuple(speed * np.ones(ndim) / np.sqrt(ndim))
        floor = bw.dispersion_floor(bw.BoostedSymbol.make(bw.biharmonic(mu, ndim), v))
        assert floor == bw.dispersion_floor(bw.BoostedSymbol.make(bw.fractional(2.0, ndim), v))
        assert floor == pytest.approx(-3.0 * (float(np.linalg.norm(v)) / 4.0) ** (4.0 / 3.0),
                                      rel=1e-15, abs=0.0)
    # at rest with mu > 0 the minimum lies on |xi|^2 = mu / 2: -mu^2 / 4
    for mu in (1e-3, 0.5, 1.0, 2.5, 7.3, 1e3):
        floor = bw.dispersion_floor(bw.BoostedSymbol.make(bw.biharmonic(mu, ndim), (0.0,) * ndim))
        exact = -(mu * mu) / 4.0
        assert abs(floor - exact) <= math.ulp(exact)


@pytest.mark.parametrize("velocity", [(1e200,), (6e199, 8e199)], ids=["1d", "2d"])
def test_floor_of_huge_speed_does_not_overflow(velocity):
    # |v|^2 = 1e400 overflows; Sigma_v = -|v|^2 / (4 |mu|) to leading order,
    # as r^4 is negligible at the minimizer r = |v| / (2 |mu|) = 5e49
    bsym = bw.BoostedSymbol.make(bw.biharmonic(-1e150, len(velocity)), velocity)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floor = bw.dispersion_floor(bsym)
    assert floor == pytest.approx(-2.5e249, rel=1e-12)


def test_gauge_identity_at_zero_velocity(sech_field):
    out = galilean_gauge(sech_field, (0.0,))
    assert np.array_equal(out.values, sech_field.values)


def test_gauge_preserves_modulus_and_l2(gauss_field):
    out = galilean_gauge(gauss_field, (1.3,))
    assert np.max(np.abs(np.abs(out.values) - np.abs(gauss_field.values))) < 1e-15
    assert norm_l2(out) == pytest.approx(norm_l2(gauss_field), rel=1e-15)


def test_gauge_inverse_roundtrip(gauss_field):
    out = galilean_gauge(galilean_gauge(gauss_field, (0.9,)), (-0.9,))
    assert np.max(np.abs(out.values - gauss_field.values)) < 1e-14


def test_boosted_symbol_pointwise():
    # on a box of half-length pi the frequency step is 1: bin (1, 2) is xi = (1, 2)
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 2), (0.5, 0.0))
    table = bsym.on_grid(bw.Grid.make((8, 8), np.pi))
    assert float(table[1, 2]) == pytest.approx(5.0 - 0.5)
