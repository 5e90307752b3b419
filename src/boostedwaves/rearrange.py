"""Discrete symmetric-decreasing and transverse Steiner rearrangements.

Rearrangement is sort-and-assign: values sorted descending are placed onto
lattice points sorted by distance from the origin, ties broken by flat (C
order) index.  This preserves the value multiset exactly, is idempotent, and
on the FFT-ordered frequency lattice produces the alternating arrangement
(0, +dxi, -dxi, +2 dxi, ...) about the DC bin.

Spectral rearrangements replace the spectrum of a field by a rearrangement of
its modulus: "full" rearranges over all frequency axes, "axial" rearranges
each slice transverse to a chosen axis, "modulus" just drops the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Field, Grid


@dataclass(frozen=True, eq=False)
class RearrangementPlan:
    """Precomputed distance ordering for one grid geometry.

    ``order`` is a permutation of flat indices of the rearranged subspace
    (the whole lattice for a full plan, one transverse slice for an axial
    plan), listing positions by increasing distance from the origin.
    """

    shape: tuple[int, ...]
    axis: int | None
    order: np.ndarray

    @staticmethod
    def full(coord_axes) -> "RearrangementPlan":
        order = _distance_order(coord_axes)
        shape = tuple(len(c) for c in coord_axes)
        return RearrangementPlan(shape, None, order)

    @staticmethod
    def transverse(coord_axes, axis: int) -> "RearrangementPlan":
        if len(coord_axes) < 2:
            raise ValueError("transverse rearrangement needs dimension >= 2")
        rest = [c for i, c in enumerate(coord_axes) if i != axis]
        order = _distance_order(rest)
        shape = tuple(len(c) for c in coord_axes)
        return RearrangementPlan(shape, axis, order)

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError("array shape does not match the plan")
        if self.axis is None:
            out = np.empty_like(values).ravel()
            out[self.order] = np.sort(values.ravel())[::-1]
            return out.reshape(self.shape)
        moved = np.moveaxis(values, self.axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        ranked = np.sort(flat, axis=1)[:, ::-1]
        out = np.empty_like(flat)
        out[:, self.order] = ranked
        return np.moveaxis(out.reshape(moved.shape), 0, self.axis)


def _distance_order(coord_axes) -> np.ndarray:
    mesh = np.meshgrid(*coord_axes, indexing="ij")
    dist2 = np.zeros(mesh[0].shape)
    for m in mesh:
        dist2 += m**2
    # stable sort on the C-order ravel: ties resolve by lexicographic index
    return np.argsort(dist2.ravel(), kind="stable")


def _require_rearrangeable(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("rearrangement input must be finite")
    if np.any(values < 0):
        raise ValueError("rearrangement input must be nonnegative")
    return values


def schwarz(values, coord_axes) -> np.ndarray:
    """Full symmetric-decreasing rearrangement of a nonnegative array."""
    values = _require_rearrangeable(values)
    return RearrangementPlan.full(list(coord_axes)).apply(values)


def steiner_array(values, coord_axes, axis: int = 0) -> np.ndarray:
    """Per-slice transverse rearrangement of a nonnegative array."""
    values = _require_rearrangeable(values)
    return RearrangementPlan.transverse(list(coord_axes), axis).apply(values)


@lru_cache(maxsize=64)
def _plan(grid: Grid, axis) -> RearrangementPlan:
    coords = [grid.freqs(i) for i in range(grid.ndim)]
    if axis is None:
        return RearrangementPlan.full(coords)
    return RearrangementPlan.transverse(coords, axis)


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
    mag = np.abs(f.spectrum)
    if mode == "full":
        out = _plan(f.grid, None).apply(mag)
    elif mode == "axial":
        if f.grid.ndim < 2:
            raise ValueError("axial rearrangement needs dimension >= 2")
        if not 0 <= axis < f.grid.ndim:
            raise ValueError(f"axis {axis} is out of range for a {f.grid.ndim}D field")
        out = _plan(f.grid, axis).apply(mag)
    else:
        out = mag
    return Field.from_spectrum(f.grid, out)
