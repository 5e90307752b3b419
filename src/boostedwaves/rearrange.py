"""Discrete symmetric-decreasing and transverse Steiner rearrangements.

Rearrangement is one sort-and-assign (:func:`_sort_assign`): the values of
each slice transverse to a kept axis, sorted descending, go onto the slice's
points sorted by distance from the origin, ties broken by flat (C order)
index; the full rearrangement keeps no axis, so the whole array is one slice.
This preserves each slice's multiset exactly, is idempotent, and on the
FFT-ordered frequency lattice produces the alternating arrangement (0, +dxi,
-dxi, +2 dxi, ...) about the DC bin.

Spectral rearrangements replace the spectrum of a field by a rearrangement of
its modulus: "full" rearranges over all frequency axes, "axial" rearranges
each slice transverse to a chosen axis, "modulus" just drops the phase.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import Field, Grid


def _distance_order(coord_axes, axis: int | None) -> np.ndarray:
    """Flat indices of the points of one slice transverse to ``axis`` (of the
    whole lattice for None), by increasing distance from the origin."""
    mesh = np.meshgrid(*[c for i, c in enumerate(coord_axes) if i != axis], indexing="ij")
    dist2 = np.zeros(mesh[0].shape)
    for m in mesh:
        dist2 += m**2
    # stable sort on the C-order ravel: ties resolve by lexicographic index
    return np.argsort(dist2.ravel(), kind="stable")


def _sort_assign(values: np.ndarray, order: np.ndarray, axis: int | None) -> np.ndarray:
    """Each slice transverse to ``axis`` sorted descending onto the flat
    positions ``order`` of :func:`_distance_order`; for None the whole array
    is one slice."""
    moved = values[np.newaxis] if axis is None else np.moveaxis(values, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = np.empty_like(flat)
    out[:, order] = np.sort(flat, axis=1)[:, ::-1]
    if axis is None:
        return out.reshape(values.shape)
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def steiner_array(values, coord_axes, axis: int = 0) -> np.ndarray:
    """Per-slice transverse rearrangement of a nonnegative array."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("rearrangement input must be finite")
    if np.any(values < 0):
        raise ValueError("rearrangement input must be nonnegative")
    if len(coord_axes) < 2:
        raise ValueError("transverse rearrangement needs dimension >= 2")
    if values.shape != tuple(len(c) for c in coord_axes):
        raise ValueError("array shape does not match the coordinates")
    return _sort_assign(values, _distance_order(coord_axes, axis), axis)


@lru_cache(maxsize=64)
def _plan(grid: Grid, axis: int | None) -> np.ndarray:
    """The read-only distance order of ``grid``'s frequency lattice
    transverse to ``axis`` (None: the whole lattice)."""
    order = _distance_order([grid.freqs(i) for i in range(grid.ndim)], axis)
    order.setflags(write=False)
    return order


REARRANGE_MODES = ("full", "axial", "modulus")


def fourier_rearrange(f: Field, mode: str, axis: int = 0) -> Field:
    """Replace the spectrum by a rearrangement of its modulus.

    mode "full": symmetric-decreasing over the whole frequency lattice;
    mode "axial": transverse Steiner rearrangement about ``axis`` (needs
    dimension >= 2); mode "modulus": keep |u_hat| in place.  The resulting
    spectrum is real and nonnegative.
    """
    if mode not in REARRANGE_MODES:
        raise ValueError(f"mode must be one of {REARRANGE_MODES}")
    if mode == "axial":
        if f.grid.ndim < 2:
            raise ValueError("axial rearrangement needs dimension >= 2")
        if not 0 <= axis < f.grid.ndim:
            raise ValueError(f"axis {axis} is out of range for a {f.grid.ndim}D field")
    mag = np.abs(f.spectrum)
    if mode != "modulus":
        kept = axis if mode == "axial" else None
        mag = _sort_assign(mag, _plan(f.grid, kept), kept)
    return Field.from_spectrum(f.grid, mag)
