import itertools
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage
from scipy.integrate import quad
from scipy.signal import fftconvolve

import boostedwaves as bw
from boostedwaves import solver, verify
from boostedwaves.fields import flat_norm
from references import galilean_gauge


def test_support_set_gaussian_radius():
    g = bw.Grid.make(512, 20.0)
    xi = g.freqs(0)
    f = bw.Field.from_spectrum(g, np.exp(-(xi**2) / 2).astype(complex))
    s = bw.support_set(f)
    # |Q_hat| > tau  <=>  |xi| < sqrt(-2 ln tau)
    radius = np.sqrt(-2.0 * np.log(verify.SUPPORT_TAU))
    expected = np.abs(xi) < radius
    assert np.array_equal(s.mask, expected)


def test_support_threshold_is_the_verify_constant():
    # a bin just above SUPPORT_TAU * max |Q_hat| is in the mask, one just below is out
    g = bw.Grid.make(64, 5.0)
    spec = np.zeros(64, dtype=complex)
    spec[0] = 2.0
    cut = verify.SUPPORT_TAU * 2.0
    spec[[1, 2]] = [(1 + 1e-6) * cut, -1j * (1 - 1e-6) * cut]
    mask = bw.support_set(bw.Field.from_spectrum(g, spec)).mask
    assert np.array_equal(np.flatnonzero(mask), [0, 1])


def test_support_set_rejects_zero_field():
    g = bw.Grid.make(64, 5.0)
    zero = bw.Field.from_values(g, np.zeros(64, dtype=complex))
    with pytest.raises(bw.ZeroFieldError):
        bw.support_set(zero)


@pytest.mark.parametrize("spoil", ["all_nan", "one_inf"])
def test_support_set_rejects_non_finite_field(spoil):
    # cut naively, the mask would be empty and the phase fit would blame a
    # disconnected support
    g = bw.Grid.make(64, 5.0)
    if spoil == "all_nan":
        spec = np.full(64, np.nan, dtype=complex)
    else:
        spec = np.exp(-g.freqs(0) ** 2).astype(complex)
        spec[7] = np.inf
    f = bw.Field.from_spectrum(g, spec)
    for call in (bw.support_set, bw.phase_affinity):
        with pytest.raises(ValueError, match="non-finite"):
            call(f)


def test_support_of_sech_state_is_one_interval(classical_report):
    # oracle: the transform of sech is a positive sech profile, so the
    # thresholded mask must be a single centered interval
    val, _ = quad(lambda x: np.cos(2.0 * x) / np.cosh(x), -40.0, 40.0)
    assert val > 0  # spectrum positive at xi = 2
    s = bw.support_set(classical_report.Q)
    idx = np.sort(np.where(np.fft.fftshift(s.mask))[0])
    assert np.all(np.diff(idx) == 1)
    assert bw.is_connected(s)


def test_is_connected_masks():
    full = bw.SupportSet(np.ones(64, dtype=bool))
    assert bw.is_connected(full)
    two = np.zeros(64, dtype=bool)
    two[10:20] = True
    two[40:50] = True
    assert not bw.is_connected(bw.SupportSet(two))


def test_is_connected_joined_tubes():
    # two half-space tubes meeting at an origin slab form one component
    mask_c = np.zeros((32, 32), dtype=bool)
    mask_c[:16, 14:18] = True   # left tube
    mask_c[16:, 12:20] = True   # right tube, overlapping rows at the seam
    mask = np.fft.ifftshift(mask_c)
    assert bw.is_connected(bw.SupportSet(mask))


def _spiral(n: int) -> np.ndarray:
    """A one-cell-wide square spiral on an n x n lattice, arms two cells apart."""
    mask = np.zeros((n, n), dtype=bool)
    r = c = 0
    mask[r, c] = True
    arms = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in range(2)]
    for turn, length in enumerate(arms):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[turn % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            mask[r, c] = True
    return mask


def _hilbert(order: int) -> np.ndarray:
    """The Hilbert curve of the given order, drawn one cell wide with one-cell gaps."""
    n = 1 << order
    points = []
    for d in range(n * n):
        x = y = 0
        step = 1
        while step < n:
            rx = 1 & (d // 2)
            ry = 1 & (d ^ rx)
            if ry == 0:
                if rx == 1:
                    x, y = step - 1 - x, step - 1 - y
                x, y = y, x
            x, y = x + step * rx, y + step * ry
            d //= 4
            step *= 2
        points.append((x, y))
    mask = np.zeros((2 * n - 1, 2 * n - 1), dtype=bool)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        mask[2 * x0, 2 * y0] = mask[x0 + x1, y0 + y1] = mask[2 * x1, 2 * y1] = True
    return mask


def _connectivity_masks():
    """Centered masks for the connectivity check, named by what they exercise."""
    rng = np.random.default_rng(2024)
    for k in range(300):
        ndim = 1 + k % 3
        shape = tuple(int(n) for n in rng.integers(1, (40, 16, 9)[ndim - 1], size=ndim))
        yield f"random{k}", rng.uniform(size=shape) < rng.uniform(0.2, 0.9)
    for shape in ((1, 9), (9, 1), (3, 1, 5), (1, 1, 1), (1,), (7,)):
        yield f"thin{shape}", rng.uniform(size=shape) < 0.7
        yield f"empty{shape}", np.zeros(shape, dtype=bool)
        yield f"full{shape}", np.ones(shape, dtype=bool)
    for shape in ((6, 6), (7, 5), (4, 4, 4)):
        # cells touch only along diagonals: one component per cell
        yield f"checkerboard{shape}", np.indices(shape).sum(axis=0) % 2 == 0
    # long paths whose run numbering makes the roots hook over several
    # rounds: two for the spirals, two to five for the Hilbert curves
    for n in (7, 15, 31):
        spiral = _spiral(n)
        yield f"spiral{n}", spiral
        yield f"spiral{n}.T", spiral.T.copy()
        cut = spiral.copy()
        cut[n // 2, -1] = False
        yield f"spiral{n}-cut", cut
    for order in (2, 3, 4):
        curve = _hilbert(order)
        yield f"hilbert{order}", curve
        yield f"hilbert{order}.T", curve.T.copy()
        yield f"hilbert{order}x3", np.stack([curve, ~curve, curve])


def test_is_connected_matches_ndimage_label():
    # components of the face-adjacency graph, counted by scipy's flood fill
    for name, mask_c in _connectivity_masks():
        faces = ndimage.generate_binary_structure(mask_c.ndim, 1)
        want = ndimage.label(mask_c, structure=faces)[1]
        starts, ends = verify._line_runs(mask_c)
        pairs = verify._run_contacts(mask_c.shape, starts, ends)
        assert verify._component_count(starts.size, *pairs) == want, name
        s = bw.SupportSet(np.fft.ifftshift(mask_c))
        assert bw.is_connected(s) == (want == 1), name


@pytest.mark.parametrize("shape", [(8,), (9,), (1024,), (8, 16), (3, 1, 5), (4, 6, 8)])
def test_centered_is_fftshift(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for a in (values, values.real, values.real > 0):
        assert np.array_equal(verify._centered(a), np.fft.fftshift(a))


# For sigma in N the spectrum of |u|^{2 sigma} u is a convolution of sigma + 1
# copies of u_hat with sigma copies of its reflected conjugate, so a support S
# goes to the fold (sigma+1) S + sigma (-S).  The convolution suite
# (test_suites.py) reads a Minkowski sum off scipy's fftconvolve of the
# indicators; the tests below fold supports through that route and hold it to
# an FFT-free set sum.

def _fold_defect(mask_c, sigma, add):
    """|F ^ S| / |S| for the fold F of the centered mask S, cut to the box.

    ``add(a, b)`` is the Minkowski sum of two boolean arrays, of shape
    a.shape + b.shape - 1.  A set of centered lattice points is a boolean
    array plus the point that its index 0 stands for: -N//2 per axis for S,
    and N//2 - (N - 1) for -S, the mask flipped on every axis.
    """
    half = np.array([n // 2 for n in mask_c.shape])
    plus = (mask_c, -half)
    minus = (np.flip(mask_c), half - np.array(mask_c.shape) + 1)
    sums, origin = plus
    for term, term_origin in [plus] * sigma + [minus] * sigma:
        sums, origin = add(sums, term), origin + term_origin
    corner = -half - origin  # where the box's first point, -N//2 per axis, sits in sums
    in_box = sums[tuple(slice(c, c + n) for c, n in zip(corner, mask_c.shape))]
    return np.count_nonzero(in_box ^ mask_c) / np.count_nonzero(mask_c)


def _set_sum(a, b):
    """Minkowski sum with no FFT: one shifted copy of a ORed in per point of b."""
    grown = np.zeros(tuple(np.add(a.shape, b.shape) - 1), dtype=bool)
    for p in np.argwhere(b):
        grown[tuple(slice(i, i + n) for i, n in zip(p, a.shape))] |= a
    return grown


def _suite_sum(a, b):
    """Minkowski sum as the convolution suite takes it: full convolution of the
    indicators, above 1/2."""
    return fftconvolve(a.astype(np.float64), b.astype(np.float64)) > 0.5


def _suite_defect(s, sigma):
    return _fold_defect(s.centered, sigma, _suite_sum)


def test_minkowski_defect_full_lattice():
    s = bw.SupportSet(np.ones(64, dtype=bool))
    assert _suite_defect(s, 3) == 0.0


def test_minkowski_defect_half_lattice():
    # the support map is S -> (sigma+1) S + sigma (-S), and H + H - H fills
    # the box: the half-lattice [0, 32) of 32 points becomes all 64 box points
    mask_c = np.zeros(64, dtype=bool)
    mask_c[32:] = True
    s = bw.SupportSet(np.fft.ifftshift(mask_c))
    assert _suite_defect(s, 3) == 1.0
    # without the boundary bin, [1, 32) still sums to an interval covering the box
    strict = np.zeros(64, dtype=bool)
    strict[33:] = True
    s2 = bw.SupportSet(np.fft.ifftshift(strict))
    assert _suite_defect(s2, 3) == 33 / 31


def test_minkowski_defect_two_blobs_oracle():
    mask_c = np.zeros(32, dtype=bool)
    mask_c[4:7] = True
    mask_c[26:29] = True
    s = bw.SupportSet(np.fft.ifftshift(mask_c))
    pts = [int(p) for p in np.where(mask_c)[0] - 16]
    for sigma in (1, 2):
        got = _suite_defect(s, sigma)
        # brute-force signed sums on the 32-point lattice: sigma + 1 points
        # of S minus sigma points of S
        sums = {sum(c[:sigma + 1]) - sum(c[sigma + 1:])
                for c in itertools.product(pts, repeat=2 * sigma + 1)}
        in_box = {z for z in sums if -16 <= z < 16}
        defect = len(in_box ^ set(pts)) / len(pts)
        assert got == pytest.approx(defect)
        assert got > 0.5


def _check_masks(shape, sigma):
    # corner bins give the extreme sums, -sigma (N-1) and (sigma+1)(N-1) from
    # the box's first index, far outside a padding shorter than the fold
    first = (0,) * len(shape)
    last = tuple(n - 1 for n in shape)
    centre = tuple(n // 2 for n in shape)
    rng = np.random.default_rng(sum(shape) + 100 * sigma)
    masks = [np.ones(shape, dtype=bool)]
    for bins in ((first, last), (first, centre), (last, centre)):
        masks.append(np.zeros(shape, dtype=bool))
        for b in bins:
            masks[-1][b] = True
    for density in (0.05, 0.3):
        masks.append(rng.uniform(size=shape) < density)
        masks[-1][centre] = True
    for mask_c in masks:
        s = bw.SupportSet(np.fft.ifftshift(mask_c))
        want = _fold_defect(mask_c, sigma, _set_sum)
        assert _suite_defect(s, sigma) == want, np.argwhere(mask_c)


@pytest.mark.parametrize("shape", [(8,), (16,), (8, 8)])
@pytest.mark.parametrize("sigma", [1, 2, 3, 5])
def test_minkowski_defect_matches_set_sum_oracle(shape, sigma):
    _check_masks(shape, sigma)


@pytest.mark.parametrize("shape, sigma", [((8, 8, 8), 2), ((8, 8, 8), 3), ((8, 16), 3),
                                          ((16, 8), 3), ((16,), 7), ((8, 8, 8), 1),
                                          ((8, 16), 1), ((8, 16), 2), ((16, 8), 1),
                                          ((16, 8), 2)])
def test_minkowski_defect_matches_set_sum_oracle_on_every_axis(shape, sigma):
    # the padded real transforms work axis by axis: 3D, unequal sizes either
    # way round, and a deep fold
    _check_masks(shape, sigma)


@pytest.mark.parametrize("shape, sigma", [((64,), 7), ((256,), 7), ((64, 64), 3)])
def test_minkowski_fold_of_a_sublattice_stays_on_it(shape, sigma):
    # Every third lattice point: the sums stay on multiples of 3, so the
    # defect is 0.  Each convolution leaves exact zeros off the sublattice
    # next to counts of up to |S| (1,365 points at 64 x 64), which rounding
    # must keep below 1/2.
    points = np.indices(shape).sum(axis=0) - sum(n // 2 for n in shape)
    mask_c = points % 3 == 0
    s = bw.SupportSet(np.fft.ifftshift(mask_c))
    assert _suite_defect(s, sigma) == 0.0


@pytest.mark.parametrize("sigma", [1, 2])
def test_minkowski_fold_is_the_support_of_the_nonlinearity(sigma):
    # A spectrum on the bins of [a, b] makes the spectrum of |u|^{2 sigma} u
    # a convolution of sigma + 1 copies of it with sigma copies of its
    # reflected conjugate: positive terms only, so its support is the bins of
    # ((sigma+1) a - sigma b, (sigma+1) b - sigma a), not of (2 sigma + 1) S.
    g = bw.Grid.make(512, 20.0 * np.pi)  # frequency step 0.05, no aliasing up to 12.8
    step = g.freq_step(0)
    a, b = 1.05, 2.95
    xi = g.freqs(0)
    on = (xi >= a - step / 2) & (xi <= b + step / 2)
    spec = np.where(on, 1.0 + np.random.default_rng(sigma).uniform(size=512), 0.0)
    u = bw.Field.from_spectrum(g, spec.astype(complex))
    vals = u.values
    nonlinear = bw.Field.from_values(g, np.abs(vals) ** (2 * sigma) * vals)
    out = bw.support_set(nonlinear)
    lo, hi = xi[out.mask].min(), xi[out.mask].max()
    assert abs(lo - ((sigma + 1) * a - sigma * b)) <= step
    assert abs(hi - ((sigma + 1) * b - sigma * a)) <= step
    assert np.all(out.mask[(xi >= lo) & (xi <= hi)])  # one interval
    # read through its sum: S lies in the fold, and the fold fits in the box,
    # so |fold| = |S| (1 + defect) is the number of bins of the nonlinearity
    s = bw.support_set(u)
    assert np.array_equal(s.mask, on)
    fold = s.mask.sum() * (1.0 + _suite_defect(s, sigma))
    assert fold == pytest.approx(out.mask.sum(), abs=1e-9)

def test_phase_affinity_real_positive_spectrum():
    g = bw.Grid.make(256, 15.0)
    xi = g.freqs(0)
    f = bw.Field.from_spectrum(g, np.exp(-(xi**2)).astype(complex))
    fit = bw.phase_affinity(f)
    assert fit.alpha == pytest.approx(0.0, abs=1e-12)
    assert fit.beta[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.residual <= 1e-12


def test_phase_affinity_recovers_translation(classical_report, frac2d_report):
    # the phase -a . xi wraps many times across the support, in 1D and along both 2D axes
    for q, shift in ((classical_report.Q, (16,)), (frac2d_report.Q, (16, -11))):
        shifted = bw.Field.from_values(q.grid, np.roll(q.values, shift, axis=tuple(range(len(shift)))))
        fit = bw.phase_affinity(shifted)
        # translation by a multiplies the spectrum by exp(-i a . xi)
        for axis, k in enumerate(shift):
            assert fit.beta[axis] == pytest.approx(-k * q.grid.spacing(axis), abs=1e-10)
        assert fit.residual <= 1e-9


def test_phase_affinity_recovers_global_phase(classical_report):
    q = classical_report.Q
    rotated = bw.Field.from_values(q.grid, np.exp(1j * np.pi / 3) * np.roll(q.values, 16))
    fit = bw.phase_affinity(rotated)
    assert fit.alpha == pytest.approx(np.pi / 3, abs=1e-9)
    assert fit.beta[0] == pytest.approx(-16 * q.grid.spacing(0), abs=1e-10)


def test_phase_affinity_requires_connected_support():
    g = bw.Grid.make(128, 10.0)
    xi = g.freqs(0)
    spec = np.where((np.abs(xi) > 2.0) & (np.abs(xi) < 4.0), 1.0, 0.0)
    f = bw.Field.from_spectrum(g, spec.astype(complex))
    with pytest.raises(bw.DisconnectedSupportError):
        bw.phase_affinity(f)


def _reference_phase_fit(f, s):
    """Per-point fit: (alpha, beta, residual) from the support bins gathered
    one by one, unwrapped around the neighbour-increment slope guess read on
    the axis lines through the peak bin, and an N x (n+1) weighted ``lstsq``
    (the minimum-norm answer where the system is rank deficient)."""
    grid = f.grid
    spec_c = np.fft.fftshift(f.spectrum)
    mask_c = np.fft.fftshift(s.mask)
    ndim = mask_c.ndim
    pts = np.argwhere(mask_c)
    steps = np.array([grid.freq_step(axis) for axis in range(ndim)])
    coords = (pts - np.array(grid.sizes) // 2) * steps
    vals = spec_c[tuple(pts.T)]
    raw, mag = np.angle(vals), np.abs(vals)
    start = int(np.argmax(mag))
    beta0 = np.zeros(ndim)
    for axis in range(ndim):
        # the support pairs (p, p + e_axis) on the line through the peak
        others = [a for a in range(ndim) if a != axis]
        on_line = np.all(pts[:, others] == pts[start, others], axis=1)
        line = {int(p[axis]): v for p, v in zip(pts[on_line], vals[on_line])}
        prod = np.array([line[k + 1] * np.conj(line[k]) for k in line if k + 1 in line])
        size = np.abs(prod)
        if size.sum() > 0.0:
            beta0[axis] = np.sum(size * np.angle(prod)) / (size.sum() * grid.freq_step(axis))
    guess = coords @ beta0
    guess += raw[start] - guess[start]
    y = guess + (raw - guess + np.pi) % (2.0 * np.pi) - np.pi
    design = np.hstack([np.ones((len(pts), 1)), coords])
    sol, *_ = np.linalg.lstsq(design * mag[:, None], y * mag, rcond=None)
    residual = np.sqrt(np.sum((mag * (y - design @ sol)) ** 2) / np.sum(mag**2))
    return float(sol[0]), sol[1:], float(residual)


def _reference_s2(f, alpha, beta):
    phase = alpha + sum(b * mesh for b, mesh in zip(beta, f.grid.freq_mesh()))
    spec = f.spectrum * np.exp(-1j * phase)
    return 2.0 * np.linalg.norm(spec.imag) / np.linalg.norm(spec)


def _assert_fit_matches_reference(f, res_tol):
    s = bw.support_set(f)
    fit = bw.phase_affinity(f, s)
    alpha, beta, residual = _reference_phase_fit(f, s)
    assert abs(np.remainder(fit.alpha - alpha + np.pi, 2.0 * np.pi) - np.pi) <= 1e-12
    assert np.max(np.abs(np.subtract(fit.beta, beta))) <= 1e-12
    assert abs(fit.residual - residual) <= res_tol
    return fit, alpha, beta


@pytest.mark.parametrize("state", ["classical_report", "halfwave_report", "frac2d_report"])
def test_phase_affinity_matches_per_point_fit(state, request):
    q = request.getfixturevalue(state).Q
    shift = (16, -11)[: q.grid.ndim]
    for values in (q.values,
                   np.roll(q.values, shift, axis=tuple(range(q.grid.ndim))),
                   np.exp(1.1j) * q.values):
        _assert_fit_matches_reference(bw.Field.from_values(q.grid, values), 1e-13)


def _single_bin(shape, bin_c, value):
    spec_c = np.zeros(shape, dtype=complex)
    spec_c[bin_c] = value
    return spec_c


def _line(shape, axis, at, phase_slope):
    # one bin thick: bins 2 .. 11 along ``axis``, fixed index ``at`` on the other
    spec_c = np.zeros(shape, dtype=complex)
    k = np.arange(2, 12)
    index = [at] * len(shape)
    index[axis] = k
    spec_c[tuple(index)] = np.exp(-0.1 * (k - 6) ** 2 + 1j * (0.4 + phase_slope * (k - 8)))
    return spec_c


@pytest.mark.parametrize("spec_c", [
    _single_bin((16,), (11,), 2.0 * np.exp(0.7j)),
    _single_bin((16, 16), (13, 3), 2.0 * np.exp(-2.5j)),
    _line((16, 16), 0, 12, 0.9),
    _line((16, 16), 1, 3, -1.3),
], ids=["bin-1d", "bin-2d", "line-axis0", "line-axis1"])
def test_phase_affinity_rank_deficient_support_is_minimum_norm(spec_c):
    # a single off-origin bin, or a line one bin thick: the affine fit is not
    # unique, and the answer stays the per-point least-squares minimum norm
    f = bw.Field.from_spectrum(bw.Grid.make(spec_c.shape, 4.0), np.fft.ifftshift(spec_c))
    fit, alpha, beta = _assert_fit_matches_reference(f, 1e-13)
    rep = bw.symmetry_report(f, _problem(f.grid))
    assert rep.phase == fit
    assert abs(rep.s2_defect - _reference_s2(f, alpha, beta)) <= 1e-13


def test_phase_affinity_reads_its_slope_guess_on_the_peak_lines():
    # The phase is affine on the two axis lines through the peak bin (17, 14)
    # and far from affine off them, where the increments along axis 0 grow
    # with (k1 - 14)^2: a slope guess averaged over the whole lattice cuts
    # the unwrap elsewhere and gives another fit.  Such a phase fails the
    # verdict either way.
    k0, k1 = np.indices((32, 32))
    d0, d1 = k0 - 17, k1 - 14
    spec_c = np.exp(-(d0**2 + d1**2) / 18.0 + 1j * (0.5 + 0.8 * d0 - 1.1 * d1 + 0.3 * d0 * d1**2))
    f = bw.Field.from_spectrum(bw.Grid.make((32, 32), 4.0), np.fft.ifftshift(spec_c))
    fit, _, _ = _assert_fit_matches_reference(f, 1e-13)
    rep = bw.symmetry_report(f, _problem(f.grid))
    assert rep.phase == fit and rep.connected
    assert rep.s2_defect > 0.1 and not rep.passes(1e-8)


def _problem(grid):
    """The problem s = 1, v = 0, omega = 1, sigma = 1 on ``grid``."""
    return bw.Problem.make(bw.BoostedSymbol.make(bw.fractional(1.0, grid.ndim), 0.0), 1.0, 1,
                           grid)


def test_symmetry_report_rest_state(classical_problem, classical_report):
    rep = bw.symmetry_report(classical_report.Q, classical_problem, axis=0)
    assert rep.s1_defect == 0.0  # one dimension: transverse symmetries are void
    assert rep.s2_defect <= 1e-6
    assert rep.connected
    assert rep.phase is not None and rep.phase.residual <= 1e-6
    assert rep.unit_residual <= 1e-10


def test_symmetry_report_boosted_gauge_state(classical_report):
    boosted = galilean_gauge(classical_report.Q, (0.5,))
    rep = bw.symmetry_report(boosted, _problem(boosted.grid), axis=0)
    assert rep.s2_defect <= 1e-6


def test_symmetry_report_detects_broken_symmetry(classical_problem, classical_report,
                                                 frac2d_problem, frac2d_report):
    for prob, q in ((classical_problem, classical_report.Q), (frac2d_problem, frac2d_report.Q)):
        mesh = q.grid.coord_mesh()
        r2 = sum(m**2 for m in mesh)
        perturbed = q.values + 0.05 * mesh[0] * np.exp(-r2 / 4.0)  # odd in x_0
        rep = bw.symmetry_report(bw.Field.from_values(q.grid, perturbed), prob, axis=0)
        assert rep.phase is not None  # the fit ran; removing it leaves the defect
        assert rep.s2_defect > 1e-2
        assert rep.unit_residual > 1e-3


def test_symmetry_report_2d_ground_state(frac2d_problem, frac2d_report):
    rep = bw.symmetry_report(frac2d_report.Q, frac2d_problem, axis=0)
    assert rep.s1_defect <= 1e-5
    assert rep.s2_defect <= 1e-5
    assert rep.modulus_rearranged_defect <= 1e-5
    assert rep.connected
    assert rep.unit_residual == bw.unit_residual(frac2d_problem, frac2d_report.Q) <= 1e-10


@pytest.mark.parametrize("defect", ["s1_defect", "s2_defect", "modulus_rearranged_defect"])
def test_report_passes_at_its_gates(defect):
    # each gate is inclusive: a defect equal to DEFECT_MAX passes, the next
    # float above fails; so does a residual above tol, or a disconnected support
    tol = 1e-10
    rep = verify.SymmetryReport(0.0, 0.0, 0.0, None, True, tol)
    assert rep.passes(tol)
    assert replace(rep, **{defect: verify.DEFECT_MAX}).passes(tol)
    assert not replace(rep, **{defect: np.nextafter(verify.DEFECT_MAX, 1.0)}).passes(tol)
    assert not replace(rep, **{defect: np.nan}).passes(tol)
    assert not replace(rep, connected=False).passes(tol)
    assert not replace(rep, unit_residual=np.nextafter(tol, 1.0)).passes(tol)


def test_symmetry_report_disconnected_is_flagged_not_raised():
    g = bw.Grid.make(128, 10.0)
    xi = g.freqs(0)
    spec = np.where((np.abs(xi) > 2.0) & (np.abs(xi) < 4.0), 1.0, 0.0)
    f = bw.Field.from_spectrum(g, spec.astype(complex))
    rep = bw.symmetry_report(f, _problem(g), axis=0)
    assert not rep.connected
    assert rep.phase is None


def test_symmetry_report_refuses_a_field_on_another_grid(classical_report):
    other = bw.Grid.make(1024, 10 * np.pi)
    with pytest.raises(ValueError, match="grid differs"):
        bw.symmetry_report(classical_report.Q, _problem(other))


def test_convolution_support_identity_against_dilation():
    # dual routes: FFT convolution support vs exact lattice dilation
    from scipy import signal

    rng = np.random.default_rng(31)
    for _ in range(25):
        f = np.zeros((32, 32))
        g = np.zeros((32, 32))
        fm = rng.uniform(size=(7, 7)) < 0.4
        gm = rng.uniform(size=(5, 5)) < 0.4
        if not fm.any() or not gm.any():
            continue
        f[12:19, 12:19][fm] = rng.uniform(0.5, 1.5, size=int(fm.sum()))
        g[13:18, 13:18][gm] = rng.uniform(0.5, 1.5, size=int(gm.sum()))
        conv = signal.fftconvolve(f, g, mode="full")
        support = conv > 1e-12 * conv.max()
        dilation = np.zeros_like(support)
        fi = np.argwhere(f > 0)
        gi = np.argwhere(g > 0)
        for a in fi:
            for b in gi:
                dilation[a[0] + b[0], a[1] + b[1]] = True
        assert np.array_equal(support, dilation)


def test_sweep_defects_are_the_reports(classical_report, halfwave_report, frac2d_report):
    # the two defects a sweep row writes, bit for bit, also without a phase fit
    g = bw.Grid.make(64, 5.0)
    spec = np.zeros(64, dtype=complex)
    spec[[3, 4, 20, 21]] = [1.0, 0.5j, 0.7, 0.2]
    gapped = bw.Field.from_spectrum(g, spec)
    for f, axis in ((classical_report.Q, 0), (halfwave_report.Q, 0), (frac2d_report.Q, 1),
                    (gapped, 0)):
        rep = bw.symmetry_report(f, _problem(f.grid), axis=axis)
        got = verify.sweep_defects(f, axis=axis)
        assert got == (rep.s2_defect, rep.modulus_rearranged_defect)
    assert not bw.symmetry_report(gapped, _problem(g)).connected
    zero = bw.Field.from_values(g, np.zeros(64, dtype=complex))
    with pytest.raises(bw.ZeroFieldError, match="zero field"):
        verify.sweep_defects(zero)
    with pytest.raises(ValueError, match="non-finite"):
        verify.sweep_defects(bw.Field.from_values(g, np.full(64, np.nan, dtype=complex)))


def test_symmetry_report_goes_through_module_stages(frac2d_problem, frac2d_report, monkeypatch):
    # Per-layer verify tracing wraps these module attributes; one report must
    # look each of them up through the module, exactly once.
    names = ("support_set", "is_connected", "phase_affinity", "unit_residual",
             "rearrange_modulus")
    calls = {}
    for name in names:
        def counted(*args, _name=name, _inner=getattr(verify, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    rep = verify.symmetry_report(frac2d_report.Q, frac2d_problem, axis=0)
    assert rep.connected
    assert calls == dict.fromkeys(names, 1)


def _serial_report(f, prob, axis):
    """The report's stages one after another, in the order of the single-thread
    report: support, phase fit, s2, rearrangement, s1 (reflections by
    ``np.roll(np.flip(..))``), then the unit residual."""
    s = verify.support_set(f)
    mag = s.modulus
    try:
        fit = verify.phase_affinity(f, s)
    except bw.DisconnectedSupportError:
        fit = None
    s2 = verify._s2_defect(f, fit, mag)
    modrearr = verify._modulus_rearranged_defect(f, axis, mag)
    s1 = 0.0
    vals = f.values
    transverse = [t for t in range(f.grid.ndim) if t != axis]
    if transverse:
        denom = flat_norm(vals)
        images = [np.roll(np.flip(vals, axis=t), 1, axis=t) for t in transverse]
        if len(transverse) == 2:
            images.append(np.swapaxes(vals, *transverse))
        s1 = max(flat_norm(vals - image) / denom for image in images)
    return verify.SymmetryReport(s1, s2, modrearr, fit, fit is not None,
                                 verify.unit_residual(prob, f))


def _gapped_field():
    g = bw.Grid.make(128, 10.0)
    xi = g.freqs(0)
    spec = np.where((np.abs(xi) > 2.0) & (np.abs(xi) < 4.0), 1.0, 0.0)
    return bw.Field.from_spectrum(g, spec.astype(complex))


def _swap_broken_3d_field():
    # even in every coordinate, so the reflections leave it; the transverse
    # axes share their geometry but not their widths, so the swap does not
    g = bw.Grid.make((16, 16, 16), 6.0)
    x0, x1, x2 = g.coord_mesh()
    vals = np.exp(-(x0**2 + x1**2 + 2.0 * x2**2) / 2.0) * np.exp(0.3j * x0)
    return bw.Field.from_values(g, vals.astype(complex))


@pytest.mark.parametrize("case", ["ground_2d", "gapped", "swap_3d"])
def test_symmetry_report_is_its_serial_stages(case, frac2d_problem, frac2d_report):
    # the two-thread report equals its stages run one after another, bit for bit
    f, axis = {"ground_2d": (frac2d_report.Q, 0),
               "gapped": (_gapped_field(), 0),
               "swap_3d": (_swap_broken_3d_field(), 0)}[case]
    prob = frac2d_problem if case == "ground_2d" else _problem(f.grid)
    rep = bw.symmetry_report(f, prob, axis=axis)
    assert rep == _serial_report(f, prob, axis)
    if case == "gapped":
        assert rep.phase is None
    if case == "swap_3d":
        assert rep.s1_defect > 1e-2  # the swap branch sets it
        for t in (1, 2):  # while the reflections leave the field
            refl = np.roll(np.flip(f.values, axis=t), 1, axis=t)
            assert flat_norm(f.values - refl) <= 1e-12 * flat_norm(f.values)


def test_symmetry_report_raises_the_residual_error_from_its_worker(frac2d_problem, frac2d_report,
                                                                   monkeypatch):
    threads = []

    def failing_residual(*args, **kwargs):
        threads.append(threading.current_thread())
        raise ValueError("residual failed")

    monkeypatch.setattr(verify, "unit_residual", failing_residual)
    with pytest.raises(ValueError, match="residual failed"):
        bw.symmetry_report(frac2d_report.Q, frac2d_problem)
    assert len(threads) == 1 and threads[0] is not threading.current_thread()
    assert not threads[0].is_alive()


def test_symmetry_report_joins_its_worker_before_raising(frac2d_problem, frac2d_report,
                                                         monkeypatch):
    finished = []
    real = verify.unit_residual

    def slow_residual(*args, **kwargs):
        time.sleep(0.05)
        value = real(*args, **kwargs)
        finished.append(threading.current_thread())
        return value

    def failing_fit(*args, **kwargs):
        raise RuntimeError("phase fit failed")

    monkeypatch.setattr(verify, "unit_residual", slow_residual)
    monkeypatch.setattr(verify, "phase_affinity", failing_fit)
    with pytest.raises(RuntimeError, match="phase fit failed"):
        bw.symmetry_report(frac2d_report.Q, frac2d_problem)
    assert len(finished) == 1 and not finished[0].is_alive()


def test_symmetry_report_transforms_the_nonlinearity_during_the_support_cut(
        frac2d_problem, frac2d_report, monkeypatch):
    # The worker transforms |Q|^(2 sigma) Q before the handoff: the support
    # cut, made to wait for that transform on another thread, is released by
    # it, and the report still equals its serial stages.
    f, prob = frac2d_report.Q, frac2d_problem
    expected = _serial_report(f, prob, 0)
    caller = threading.current_thread()
    transformed = threading.Event()
    waited = []
    real_cut, real_nonlinearity = verify.support_set, solver._nonlinearity

    def nonlinearity(*args, **kwargs):
        if threading.current_thread() is not caller:
            transformed.set()
        return real_nonlinearity(*args, **kwargs)

    def waiting_cut(*args, **kwargs):
        waited.append(transformed.wait(timeout=10))
        return real_cut(*args, **kwargs)

    monkeypatch.setattr(solver, "_nonlinearity", nonlinearity)
    monkeypatch.setattr(verify, "support_set", waiting_cut)
    rep = verify.symmetry_report(f, prob)
    assert waited == [True]
    assert rep == expected


def _spoiled_plane(spoil):
    """A 32^2 Gaussian on [-8, 8)^2, zeroed, with one NaN value, or with two
    infinite values that a reflection along axis 1 swaps, so s1 meets inf - inf
    (``inf-spectrum``: one infinite bin of its spectrum, no values formed)."""
    g = bw.Grid.make((32, 32), 8.0)
    x0, x1 = g.coord_mesh()
    values = np.exp(-x0**2 - x1**2).astype(complex)
    if spoil == "inf-spectrum":
        spec = np.fft.fft2(values)
        spec[3, 5] = np.inf
        return bw.Field.from_spectrum(g, spec)
    if spoil == "zero":
        values[:] = 0.0
    elif spoil == "nan":
        values[3, 5] = np.nan
    else:
        values[3, [5, -5]] = np.inf
    return bw.Field.from_values(g, values)


@pytest.mark.parametrize("spoil, error, reason", [
    ("zero", bw.ZeroFieldError, "support of the zero field is empty"),
    ("nan", ValueError, "support of a field with non-finite values"),
    ("inf", ValueError, "support of a field with non-finite values"),
    ("inf-spectrum", ValueError, "support of a field with non-finite values"),
])
def test_symmetry_report_refuses_a_field_and_stops_its_worker(spoil, error, reason):
    # The worker starts before the support cut and takes s1 of the spoiled
    # values; when the cut refuses the field, the worker stops at the handoff.
    # The report raises the cut's error, warns of nothing (warnings of every
    # thread are recorded here), ends, and leaves no worker alive.
    f = _spoiled_plane(spoil)
    raised = []

    def report():
        try:
            bw.symmetry_report(f, _problem(f.grid))
        except BaseException as exc:
            raised.append(exc)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        caller = threading.Thread(target=report, daemon=True)
        caller.start()
        caller.join(timeout=30)
    assert not caller.is_alive()
    assert [(type(exc), str(exc)) for exc in raised] == [(error, reason)]
    assert [str(w.message) for w in caught] == []
    assert not [t for t in threading.enumerate() if t.name == "unit-residual"]


def test_concurrent_reports_under_fast_switching():
    # More calling threads than cores, each with its own worker, and a thread
    # switch every microsecond: every report still equals its serial stages,
    # so a worker reads s1's values and the support only once they are formed.
    f = _swap_broken_3d_field()
    prob = _problem(f.grid)
    expected = _serial_report(f, prob, 0)
    reports = []

    def caller():
        for _ in range(3):
            reports.append(bw.symmetry_report(bw.Field.from_values(f.grid, f.values), prob))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert reports == [expected] * 12


@pytest.mark.parametrize("shape", [(16, 16), (8, 32), (8, 16, 32), (32, 16, 8)])
def test_rearrangement_defect_is_the_fourier_rearrangements(shape):
    # A report sorts the support's |Q_hat| in the worker's borrowed buffers; its
    # defect, and a sweep row's, is that of fourier_rearrange's field, bit for
    # bit, on every axis (the difference summed in the lattice's own layout).
    g = bw.Grid.make(shape, 6.0)
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    mesh = g.coord_mesh()
    bump = np.exp(-sum((k + 1) * x**2 for k, x in enumerate(mesh)) / 4.0)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = bw.Field.from_values(g, bump * (1.0 + 0.1 * noise))
    mag = np.abs(f.spectrum)
    for axis in range(len(shape)):
        rearranged = np.abs(bw.fourier_rearrange(f, "axial", axis=axis).spectrum)
        oracle = flat_norm(mag - rearranged) / flat_norm(mag)
        rep = bw.symmetry_report(f, _problem(g), axis=axis)
        assert rep.modulus_rearranged_defect == oracle > 1e-3, axis
        assert verify.sweep_defects(f, axis=axis)[1] == oracle, axis
