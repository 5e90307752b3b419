"""Seeded randomized invariant suites, shared by the CLI and the test suite.

Each suite returns a :class:`SuiteResult` whose ``violations`` list holds one
human-readable line per failed check, including the inputs that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Field, Grid, norm_l2, norm_lp, quad_form
from .rearrange import fourier_rearrange, steiner_array
from .symbols import BoostedSymbol, fractional, half_wave, sqrt_klein_gordon


@dataclass
class SuiteResult:
    name: str
    trials: int
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, ok: bool, message: str):
        self.checks += 1
        if not ok:
            self.violations.append(message)


def random_field(grid: Grid, rng, width_factor: float = 3.0) -> Field:
    """Random smooth complex field built from a decaying random spectrum."""
    xi2 = np.zeros(grid.sizes)
    for mesh in grid.freq_mesh():
        xi2 = xi2 + mesh**2
    xi_max = max(grid.freq_step(i) * grid.sizes[i] / 2 for i in range(grid.ndim))
    w = xi_max / width_factor
    envelope = np.exp(-xi2 / (2.0 * w * w))
    spec = (rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)) * envelope
    spec[grid.nyquist_mask()] = 0.0
    return Field.from_spectrum(grid, spec)


def _suite_symbols(ndim: int):
    return [
        fractional(1.0, ndim),
        fractional(0.75, ndim),
        half_wave(ndim),
        sqrt_klein_gordon(1.0, ndim),
    ]


def rearrange_suite(seed: int = 1, trials: int = 200,
                    grid: Grid | None = None) -> SuiteResult:
    """Norm preservation, quadratic-form monotonicity with equality detection,
    and L^p monotonicity for the transverse spectral rearrangement."""
    grid = grid or Grid.make((32, 32), 4.0)
    rng = np.random.default_rng(seed)
    out = SuiteResult("rearrange", trials)
    omega = 1.0
    boosted = [BoostedSymbol.make(sym, 0.3) for sym in _suite_symbols(grid.ndim)]
    axis = 0

    for t in range(trials):
        f = random_field(grid, rng)
        g = fourier_rearrange(f, "axial", axis=axis)

        n_f, n_g = norm_l2(f), norm_l2(g)
        out.record(
            abs(n_f - n_g) <= 1e-12 * n_f,
            f"trial {t}: L2 norm not preserved ({n_f!r} vs {n_g!r})",
        )

        for bsym in boosted:
            qf = quad_form(f, bsym, omega, warn=False)
            qg = quad_form(g, bsym, omega, warn=False)
            scale = abs(qf) + 1e-30
            out.record(
                qg <= qf + 1e-10 * scale,
                f"trial {t}: quadratic form increased under rearrangement "
                f"for {bsym.base.kind} ({qf!r} -> {qg!r})",
            )
            if abs(qf - qg) <= 1e-10 * scale:
                gap = float(np.max(np.abs(np.abs(f.spectrum) - np.abs(g.spectrum))))
                out.record(
                    gap <= 1e-8 * (1.0 + float(np.max(np.abs(f.spectrum)))),
                    f"trial {t}: equality case without pointwise rearrangement "
                    f"match for {bsym.base.kind} (gap {gap!r})",
                )

        # idempotence: rearranged fields are exact fixed points
        gg = fourier_rearrange(g, "axial", axis=axis)
        out.record(
            np.array_equal(gg.spectrum, g.spectrum),
            f"trial {t}: rearrangement is not idempotent",
        )

        for p in (4, 6, np.inf):
            lp_f, lp_g = norm_lp(f, p), norm_lp(g, p)
            out.record(
                lp_f <= lp_g * (1.0 + 1e-10),
                f"trial {t}: L^{p} monotonicity failed ({lp_f!r} > {lp_g!r})",
            )
    return out


def _compact_nonneg(rng, shape, radius) -> np.ndarray:
    """Nonnegative array supported in a centered box of the given radius."""
    arr = np.zeros(shape)
    center = [n // 2 for n in shape]
    sl = tuple(slice(c - radius, c + radius + 1) for c in center)
    block = rng.uniform(0.0, 1.0, size=tuple(2 * radius + 1 for _ in shape))
    block[rng.uniform(size=block.shape) < 0.3] = 0.0
    arr[sl] = block
    return arr


def _convolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays, by zero-padded real FFTs."""
    shape = tuple(np.add(a.shape, b.shape) - 1)
    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(a, shape, axes) * np.fft.rfftn(b, shape, axes)
    return np.fft.irfftn(spec, shape, axes)


def _linear_conv_at_zero(factors) -> float:
    """(u_1 * ... * u_m)(0) with linear (padded) convolutions of centered arrays."""
    acc = factors[0]
    origin = np.array([n // 2 for n in factors[0].shape])
    for nxt in factors[1:]:
        acc = _convolve_full(acc, nxt)
        origin = origin + np.array([n // 2 for n in nxt.shape])
    return float(acc[tuple(origin)])


def convolution_suite(seed: int = 2, trials: int = 200,
                      shape: tuple[int, int] = (32, 32),
                      m_values: tuple[int, ...] = (3, 5),
                      mask_trials: int = 100) -> SuiteResult:
    """Multi-convolution-at-zero monotonicity plus the convolution support identity."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("convolution", trials)
    coords = [np.arange(n) - n // 2 for n in shape]

    for t in range(trials):
        for m in m_values:
            radius = max(1, min(n // (2 * m) - 1 for n in shape))
            factors = [_compact_nonneg(rng, shape, radius) for _ in range(m)]
            plain = _linear_conv_at_zero(factors)
            rearranged = [steiner_array(u, coords, axis=0) for u in factors]
            better = _linear_conv_at_zero(rearranged)
            scale = abs(better) + 1e-30
            out.record(
                plain <= better + 1e-10 * scale,
                f"trial {t}: m={m} convolution at zero decreased under "
                f"rearrangement ({plain!r} > {better!r})",
            )

    # support of a convolution of nonnegative functions = Minkowski sum of supports
    for t in range(mask_trials):
        radius = min(n // 4 - 1 for n in shape)
        f = _compact_nonneg(rng, shape, radius)
        g = _compact_nonneg(rng, shape, radius)
        f[f > 0] += 0.5
        g[g > 0] += 0.5
        conv = _convolve_full(f, g)
        support = conv > 1e-12 * conv.max() if conv.max() > 0 else conv > 0
        dilation = _convolve_full((f > 0).astype(float), (g > 0).astype(float)) > 0.5
        out.record(
            np.array_equal(support, dilation),
            f"mask trial {t}: convolution support != Minkowski sum of supports",
        )
    return out


SUITES = {
    "rearrange": rearrange_suite,
    "convolution": convolution_suite,
}


def run_suite(name: str, seed: int, trials: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {sorted(SUITES)}")
    kwargs = {"seed": seed}
    if trials is not None:
        kwargs["trials"] = trials
    return SUITES[name](**kwargs)
