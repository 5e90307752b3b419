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
:func:`rearrange_modulus` rearranges a modulus already taken, in buffers its
caller may own; :func:`fourier_rearrange` and the rearrangement defect of a
symmetry report (``verify``) both go through it, so they sort the same
values in the same way.
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


def _sort_assign(values: np.ndarray, order: np.ndarray, axis: int | None,
                 work: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Each slice transverse to ``axis`` sorted descending onto the flat
    positions ``order`` of :func:`_distance_order`; for None the whole array
    is one slice.

    The slices are copied into ``work``, sorted there in place, and assigned
    reversed into ``out``; both are C-contiguous arrays of ``values.size``
    elements of its dtype, new ones when None.  The result is ``out`` viewed
    in the layout of ``values``.
    """
    moved = values[np.newaxis] if axis is None else np.moveaxis(values, axis, 0)
    work = np.empty(moved.shape, values.dtype) if work is None else work.reshape(moved.shape)
    out = np.empty(moved.shape, values.dtype) if out is None else out.reshape(moved.shape)
    np.copyto(work, moved)
    rows = work.reshape(moved.shape[0], -1)
    rows.sort(axis=1)
    out.reshape(rows.shape)[:, order] = rows[:, ::-1]
    if axis is None:
        return out.reshape(values.shape)
    return np.moveaxis(out, 0, axis)


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


def rearrange_modulus(grid: Grid, mag: np.ndarray, axis: int | None,
                      work: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The modulus ``mag`` on ``grid``'s frequency lattice (FFT order),
    rearranged transverse to ``axis`` (None: over the whole lattice), in the
    buffers ``work`` and ``out`` of :func:`_sort_assign`."""
    return _sort_assign(mag, _plan(grid, axis), axis, work, out)


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
        mag = rearrange_modulus(f.grid, mag, axis if mode == "axial" else None)
    return Field.from_spectrum(f.grid, mag)
