"""Support masks, connectivity, Minkowski-sum defects, phase fits, symmetry reports.

All analyses run on the centered (fftshift) view of the frequency lattice so
that adjacency and Minkowski sums approximate the continuum picture without
periodic wrap-around.  Minkowski sums of masks are computed as cyclic
convolutions on one lattice whose period is just large enough that no sum
outside the box wraps onto it (see :func:`minkowski_defect`): intermediate
sums are never clipped, and lattice points whose sums exit the box never
count as defects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft, ndimage

from .errors import DisconnectedSupportError, ZeroFieldError
from .fields import Field, norm_l2
from .rearrange import fourier_rearrange


@dataclass
class SupportSet:
    """Thresholded spectral support: mask = { |Q_hat| > tau * max |Q_hat| }."""

    grid: object
    mask: np.ndarray  # boolean, FFT order
    tau: float


def support_set(f: Field, tau: float = 1e-8) -> SupportSet:
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    mag = np.abs(f.spectrum)
    top = float(mag.max())
    if top == 0.0:
        raise ZeroFieldError("support of the zero field is empty")
    return SupportSet(f.grid, mag > tau * top, tau)


def _face_structure(ndim: int) -> np.ndarray:
    return ndimage.generate_binary_structure(ndim, 1)


def is_connected(s: SupportSet) -> bool:
    """Flood fill over face-adjacent lattice cells; True iff one component."""
    centered = np.fft.fftshift(s.mask)
    _, count = ndimage.label(centered, structure=_face_structure(centered.ndim))
    return count == 1


def minkowski_defect(s: SupportSet, m: int) -> float:
    """Symmetric-difference fraction |S xor (m-fold sum of S)| / |S| in the box.

    The centered mask occupies indices [0, N) per axis, bin i standing for the
    lattice point i - N//2, so the m-fold sum lives on [0, m(N-1)] and the box
    on [(m-1)(N//2), (m-1)(N//2) + N).  The sums are cyclic convolutions of
    period P = N + (m-1)(N//2) per axis, (m+1)N/2 for the even sizes of a
    Grid, thresholded at 1/2 after every fold so the counts stay small exact
    integers in float64.  Reduction mod P maps Minkowski sums to cyclic
    Minkowski sums, so the result is the linear m-fold sum reduced mod P.  At
    this period the box lies in [0, P) and no other point of [0, m(N-1)] is
    congruent to a box point, so the box is read off exactly; a shorter
    period would wrap corner sums onto it.  For supports filling the truncated
    lattice (the discretization of R^n or a half-space) the defect vanishes.
    """
    if m < 2:
        raise ValueError("fold count must be >= 2")
    centered = np.fft.fftshift(s.mask)
    if not centered.any():
        raise ZeroFieldError("empty support mask")
    period = tuple(n + (m - 1) * (n // 2) for n in centered.shape)
    base = fft.rfftn(centered, s=period)
    acc = base
    for fold in range(2, m + 1):
        summed = fft.irfftn(acc * base, s=period) > 0.5
        if fold < m:
            acc = fft.rfftn(summed)
    box = tuple(slice((m - 1) * (n // 2), (m - 1) * (n // 2) + n) for n in centered.shape)
    diff = np.logical_xor(centered, summed[box])
    return float(diff.sum()) / float(centered.sum())


@dataclass
class PhaseFit:
    alpha: float
    beta: tuple[float, ...]
    residual: float


def _wrap_angle(d):
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def phase_affinity(f: Field, s: SupportSet | None = None, tau: float = 1e-8) -> PhaseFit:
    """Fit arg Q_hat ~ alpha + beta . xi over the connected support.

    A slope guess beta0 is read from the neighbour increments: along each axis
    j, over the pairs whose two bins are in the support, the |prod|-weighted
    mean of arg prod with prod = Q_hat(xi + e_j) conj Q_hat(xi), divided by
    the frequency step (the phase-difference frequency estimator of Kay, IEEE
    Trans. ASSP 37, 1989).  The phase is then unwrapped by wrapping it around
    the affine guess anchored at the maximum-modulus bin xi*:
    y = beta0 . xi + p + wrap(arg Q_hat - beta0 . xi - p) with
    p = arg Q_hat(xi*) - beta0 . xi*.  Finally y is fitted by weighted least
    squares with weights |Q_hat|^2.  Raises
    :class:`DisconnectedSupportError` when the mask has several components.
    """
    if s is None:
        s = support_set(f, tau)
    if not is_connected(s):
        raise DisconnectedSupportError("phase unwrapping needs a connected support")

    grid = f.grid
    spec_c = np.fft.fftshift(f.spectrum)
    mask_c = np.fft.fftshift(s.mask)
    ndim = mask_c.ndim

    beta0 = np.zeros(ndim)
    for axis in range(ndim):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        both = mask_c[lo] & mask_c[hi]
        prod = spec_c[hi][both] * np.conj(spec_c[lo][both])
        size = np.abs(prod)
        total = float(size.sum())
        if total > 0.0:  # else the support is one bin thick along this axis
            beta0[axis] = float(np.sum(size * np.angle(prod))) / (total * grid.freq_step(axis))

    pts = np.argwhere(mask_c)
    coords = np.empty((pts.shape[0], ndim))
    for axis in range(ndim):
        coords[:, axis] = (pts[:, axis] - grid.sizes[axis] // 2) * grid.freq_step(axis)
    vals = spec_c[tuple(pts.T)]
    raw = np.angle(vals)
    mag = np.abs(vals)
    w = mag**2
    guess = coords @ beta0
    start = int(np.argmax(mag))
    guess += raw[start] - guess[start]
    y = guess + _wrap_angle(raw - guess)

    design = np.hstack([np.ones((pts.shape[0], 1)), coords])
    sw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    fitted = design @ sol
    residual = float(np.sqrt(np.sum(w * (y - fitted) ** 2) / np.sum(w)))
    return PhaseFit(_wrap_angle(float(sol[0])), tuple(float(b) for b in sol[1:]), residual)


@dataclass
class SymmetryReport:
    """Quantitative defects for the ground-state symmetry properties.

    ``s1_defect``: worst relative deviation under transverse orthogonal grid
    symmetries (0 in one dimension). ``s2_defect``: relative size of
    Q - conj(Q(-x)) after removing the fitted affine spectral phase.
    ``modulus_rearranged_defect``: distance of |Q_hat| from its transverse
    rearrangement.  ``minkowski_defect`` uses fold count 2 sigma + 1.
    """

    s1_defect: float
    s2_defect: float
    modulus_rearranged_defect: float
    phase: PhaseFit | None
    connected: bool
    minkowski_defect: float
    fold: int
    tau: float


def _reflect_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    # periodic point reflection about the centered origin: exact permutation
    return np.roll(np.flip(arr, axis=axis), 1, axis=axis)


def _s1_defect(f: Field, axis: int) -> float:
    grid = f.grid
    if grid.ndim == 1:
        return 0.0
    vals = f.values
    denom = float(np.linalg.norm(vals))
    worst = 0.0
    transverse = [i for i in range(grid.ndim) if i != axis]
    for t in transverse:
        refl = _reflect_axis(vals, t)
        worst = max(worst, float(np.linalg.norm(vals - refl)) / denom)
    if len(transverse) == 2:
        t0, t1 = transverse
        same_geometry = (
            grid.sizes[t0] == grid.sizes[t1]
            and grid.half_lengths[t0] == grid.half_lengths[t1]
        )
        if same_geometry:
            swapped = np.swapaxes(vals, t0, t1)
            worst = max(worst, float(np.linalg.norm(vals - swapped)) / denom)
    return worst


def _s2_defect(f: Field, fit: PhaseFit | None) -> float:
    spec = f.spectrum
    if fit is not None:
        phase = np.full(f.grid.sizes, fit.alpha)
        for axis, mesh in enumerate(f.grid.freq_mesh()):
            phase = phase + fit.beta[axis] * mesh
        spec = spec * np.exp(-1j * phase)
    # conjugation symmetry Q(x) = conj(Q(-x)) is exactly realness of Q_hat
    return float(2.0 * np.linalg.norm(spec.imag) / np.linalg.norm(spec))


def _modulus_rearranged_defect(f: Field, axis: int) -> float:
    if f.grid.ndim == 1:
        # the transverse operator is void in one dimension
        return 0.0
    mag = np.abs(f.spectrum)
    rearranged = np.abs(fourier_rearrange(f, "axial", axis=axis).spectrum)
    return float(np.linalg.norm(mag - rearranged) / np.linalg.norm(mag))


def symmetry_report(
    f: Field,
    axis: int = 0,
    sigma: int = 1,
    tau: float = 1e-8,
) -> SymmetryReport:
    """Populate all symmetry defects for a candidate ground state.

    A disconnected support does not abort the report: the phase fit is left
    unset (callers treat that as failure) and the conjugation defect is then
    computed without affine-phase removal.
    """
    if norm_l2(f) == 0.0:
        raise ZeroFieldError("symmetry report of the zero field")
    s = support_set(f, tau)
    try:
        fit = phase_affinity(f, s)  # labels the support once, for both answers
    except DisconnectedSupportError:
        fit = None
    return SymmetryReport(
        s1_defect=_s1_defect(f, axis),
        s2_defect=_s2_defect(f, fit),
        modulus_rearranged_defect=_modulus_rearranged_defect(f, axis),
        phase=fit,
        connected=fit is not None,
        minkowski_defect=minkowski_defect(s, 2 * int(sigma) + 1),
        fold=2 * int(sigma) + 1,
        tau=tau,
    )
