"""Seeded randomized checks of the rearrangement lemmas the symmetry argument
rests on: norm preservation, quadratic-form and L^p monotonicity of the
transverse spectral rearrangement, monotonicity of a multi-convolution at zero
under Steiner symmetrization, and the support of a convolution of nonnegative
functions as the Minkowski sum of their supports.

Each check is one ``assert`` whose message names the trial and its inputs.
"""

import numpy as np
import pytest
from scipy.signal import fftconvolve

import boostedwaves as bw
from boostedwaves.rearrange import _distance_order, _sort_assign
from references import norm_l2, norm_lp, quad_form, random_field


@pytest.mark.parametrize("seed, trials", [(11, 30), (2, 25)])
def test_rearrange_suite_small(seed, trials):
    grid = bw.Grid.make((32, 32), 4.0)
    rng = np.random.default_rng(seed)
    omega = 1.0
    bases = [bw.fractional(1.0, 2), bw.fractional(0.75, 2), bw.half_wave(2),
             bw.sqrt_klein_gordon(1.0, 2)]
    boosted = [bw.BoostedSymbol.make(sym, 0.3) for sym in bases]

    for t in range(trials):
        f = random_field(grid, rng)
        g = bw.fourier_rearrange(f, "axial", axis=0)
        trial = f"seed {seed} trial {t}"

        n_f, n_g = norm_l2(f), norm_l2(g)
        assert abs(n_f - n_g) <= 1e-12 * n_f, f"{trial}: L2 norm not preserved ({n_f!r} vs {n_g!r})"

        for bsym in boosted:
            kind = bsym.base.kind
            qf = quad_form(f, bsym, omega)
            qg = quad_form(g, bsym, omega)
            scale = abs(qf) + 1e-30
            assert qg <= qf + 1e-10 * scale, (
                f"{trial}: quadratic form increased under rearrangement for {kind} "
                f"({qf!r} -> {qg!r})")
            if abs(qf - qg) <= 1e-10 * scale:
                gap = float(np.max(np.abs(np.abs(f.spectrum) - np.abs(g.spectrum))))
                assert gap <= 1e-8 * (1.0 + float(np.max(np.abs(f.spectrum)))), (
                    f"{trial}: equality case without pointwise rearrangement match for "
                    f"{kind} (gap {gap!r})")

        # rearranged fields are exact fixed points
        gg = bw.fourier_rearrange(g, "axial", axis=0)
        assert np.array_equal(gg.spectrum, g.spectrum), f"{trial}: rearrangement is not idempotent"

        for p in (4, 6, np.inf):
            lp_f, lp_g = norm_lp(f, p), norm_lp(g, p)
            assert lp_f <= lp_g * (1.0 + 1e-10), (
                f"{trial}: L^{p} monotonicity failed ({lp_f!r} > {lp_g!r})")


def _compact_nonneg(rng, shape, radius) -> np.ndarray:
    """Nonnegative array supported in a centered box of the given radius."""
    arr = np.zeros(shape)
    center = [n // 2 for n in shape]
    sl = tuple(slice(c - radius, c + radius + 1) for c in center)
    block = rng.uniform(0.0, 1.0, size=tuple(2 * radius + 1 for _ in shape))
    block[rng.uniform(size=block.shape) < 0.3] = 0.0
    arr[sl] = block
    return arr


def _linear_conv_at_zero(factors) -> float:
    """(u_1 * ... * u_m)(0) with linear (padded) convolutions of centered arrays."""
    acc = factors[0]
    origin = np.array([n // 2 for n in factors[0].shape])
    for nxt in factors[1:]:
        acc = fftconvolve(acc, nxt)
        origin = origin + np.array([n // 2 for n in nxt.shape])
    return float(acc[tuple(origin)])


@pytest.mark.parametrize("seed, trials, mask_trials", [(12, 30, 20), (3, 25, 100)])
def test_convolution_suite_small(seed, trials, mask_trials):
    shape = (32, 32)
    rng = np.random.default_rng(seed)
    # transverse Steiner rearrangement about axis 0: the sort-and-assign of
    # rearrange_modulus, on the centered lattice of the factors
    order = _distance_order([np.arange(n) - n // 2 for n in shape], 0)

    for t in range(trials):
        for m in (3, 5):
            radius = max(1, min(n // (2 * m) - 1 for n in shape))
            factors = [_compact_nonneg(rng, shape, radius) for _ in range(m)]
            plain = _linear_conv_at_zero(factors)
            better = _linear_conv_at_zero([_sort_assign(u, order, 0) for u in factors])
            assert plain <= better + 1e-10 * (abs(better) + 1e-30), (
                f"seed {seed} trial {t}: m={m} convolution at zero decreased under "
                f"rearrangement ({plain!r} > {better!r})")

    for t in range(mask_trials):
        radius = min(n // 4 - 1 for n in shape)
        f = _compact_nonneg(rng, shape, radius)
        g = _compact_nonneg(rng, shape, radius)
        f[f > 0] += 0.5
        g[g > 0] += 0.5
        conv = fftconvolve(f, g)
        support = conv > 1e-12 * conv.max() if conv.max() > 0 else conv > 0
        dilation = fftconvolve((f > 0).astype(float), (g > 0).astype(float)) > 0.5
        assert np.array_equal(support, dilation), (
            f"seed {seed} mask trial {t}: convolution support != Minkowski sum of supports")
