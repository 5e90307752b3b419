"""Periodic grids, spectral fields, one-thread inner products, and GNF1 field files.

Physical arrays are stored in centered order (index ``N//2`` is ``x = 0``,
coordinates run from ``-L`` to ``L - dx``).  Spectra are stored in FFT order
(DC bin at index 0, frequencies ``pi*k/L`` as produced by ``fftfreq``).  The
transform pair is scaled so that it approximates the continuum convention

    F[u](xi) = (2*pi)**(-n/2) * integral u(x) exp(-i xi.x) dx,

which makes the discrete transform unitary between the quadrature norms:
``sum |u|^2 dx^n == sum |u_hat|^2 dxi^n`` to rounding.

Every transform goes through one pair, ``_phys_to_spec`` and ``_spec_to_phys``
(``numpy.fft``).  The centering shifts are folded into a modulation: for even
N, ``fft(ifftshift(x))[k] == (-1)**k * fft(x)[k]`` and
``fftshift(ifft(s)) == ifft((-1)**k * s)``, per axis.  Every grid size is a
power of two >= 8, hence even, so each grid carries one read-only table
``(-1)**(k_1 + ... + k_n) * scale`` per direction (the scale is the product of
``dx_i / sqrt(2 pi)``) and the pair is one n-D FFT and one multiply.  A third
table, the forward one with the Nyquist bins zeroed, band-limits a spectrum in
that same multiply.

The n-D FFT is one call per axis, last axis first, which is the order and
the arithmetic of ``fftn``/``ifftn``, so the result is bit-identical to
theirs.  Each call goes to the pocketfft gufunc that ``numpy.fft.fft`` (or
``ifft``) wraps, with the scale ``ifft`` passes (1/n along the axis) and the
axis given as the gufunc's ``axes``: ``fftn``'s argument handling cost about
4 us of a 20 us transform of 1,024 points, and ``fft``'s about 2 to 3 us of
an 11 to 13 us one, where a sweep row spends its time.  (The gufuncs live in
numpy 2's private module ``numpy.fft._pocketfft_umath``.)
Each direction makes one new array and works in it (the forward transform
can take the caller's instead): the forward transform writes every axis into
it with ``out=`` and is then multiplied by its table in place, and the
inverse transforms ``spectrum * table`` in place.
Without ``out=``, numpy allocates a new array per axis, which made a 256^2
transform about twice as slow.

Equal grids share one set of read-only tables (:func:`_grid_tables`): the
modulation tables, the band-limited one, and the axes that
:meth:`Grid.coords`, :meth:`Grid.freqs`, :meth:`Grid.coord_mesh` and
:meth:`Grid.freq_mesh` return.  They are built once per distinct grid, not
once per call: the rows of a sweep and a grid read again from a file reuse
them.

A :class:`Field` adopts the complex128 array it is given instead of copying
it, and lazily computed representations are shared the same way.  A caller
must not mutate an array after handing it to a Field, nor an array a Field
returns; build a new array instead.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft
from numpy.linalg._umath_linalg import solve1 as _gesv

from .errors import GnfFormatError

TAU = 2.0 * np.pi

GNF_LAYOUT = "interleaved-complex-f64-le"


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid over the box ``prod_i [-L_i, L_i)``.

    sizes must be powers of two (>= 8); the frequency lattice per axis is the
    fftfreq lattice with spacing ``pi / L_i``, symmetric about 0 except for the
    single negative Nyquist mode.
    """

    sizes: tuple[int, ...]
    half_lengths: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.sizes) <= 3:
            raise ValueError("grid dimension must be 1, 2, or 3")
        if len(self.half_lengths) != len(self.sizes):
            raise ValueError("sizes and half_lengths must have equal length")
        for n in self.sizes:
            if not _is_power_of_two(n) or n < 8:
                raise ValueError(f"grid sizes must be powers of two >= 8, got {n}")
        for length in self.half_lengths:
            if not (math.isfinite(length) and length > 0):
                raise ValueError(f"box half-lengths must be positive, got {length}")

    @classmethod
    def make(cls, sizes, half_lengths) -> "Grid":
        """Build a grid, broadcasting a scalar half-length over all axes."""
        if np.isscalar(sizes):
            sizes = (int(sizes),)
        else:
            sizes = tuple(int(n) for n in sizes)
        if np.isscalar(half_lengths):
            half_lengths = (float(half_lengths),) * len(sizes)
        else:
            half_lengths = tuple(float(x) for x in half_lengths)
        return cls(sizes, half_lengths)

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    def spacing(self, axis: int) -> float:
        return 2.0 * self.half_lengths[axis] / self.sizes[axis]

    def freq_step(self, axis: int) -> float:
        return np.pi / self.half_lengths[axis]

    # The axes and meshes below are shared read-only arrays (see _grid_tables):
    # compute with them, do not write into them.

    def coords(self, axis: int) -> np.ndarray:
        """Centered coordinates (k - N//2) dx of one axis."""
        return self._tables.coords[axis]

    def freqs(self, axis: int) -> np.ndarray:
        """Frequencies pi k / L of one axis, in FFT order."""
        return self._tables.freqs[axis]

    def coord_mesh(self) -> tuple[np.ndarray, ...]:
        """The coordinates as a sparse ``ij`` mesh, one broadcastable array per axis."""
        return self._tables.coord_mesh

    def freq_mesh(self) -> tuple[np.ndarray, ...]:
        """The frequencies as a sparse ``ij`` mesh, one broadcastable array per axis."""
        return self._tables.freq_mesh

    def cell_volume(self) -> float:
        return self._volumes[0]

    def freq_cell_volume(self) -> float:
        return self._volumes[1]

    # Per-grid tables, computed on first use.  Read-only because grids (and
    # with them these arrays) are shared with the worker thread of a symmetry
    # report (verify.symmetry_report).

    @cached_property
    def _volumes(self) -> tuple[float, float]:
        return (
            math.prod(self.spacing(i) for i in range(self.ndim)),
            math.prod(self.freq_step(i) for i in range(self.ndim)),
        )

    @cached_property
    def _tables(self) -> "_GridTables":
        return _grid_tables(self)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _GridTables(NamedTuple):
    forward: np.ndarray  # (-1)**(k_1 + ... + k_n) * scale
    inverse: np.ndarray  # (-1)**(k_1 + ... + k_n) / scale
    band_limited_forward: np.ndarray  # forward, 0 on the Nyquist bins
    coords: tuple[np.ndarray, ...]  # per axis
    freqs: tuple[np.ndarray, ...]  # per axis, FFT order
    coord_mesh: tuple[np.ndarray, ...]  # the coords, shaped to broadcast
    freq_mesh: tuple[np.ndarray, ...]
    # per axis, in the order fftn transforms them (-1, -2, ..): the gufunc
    # ``axes`` argument for that axis and the scale 1/n of its inverse
    fft_steps: tuple[tuple[list[tuple[int, ...]], float], ...]


def _mesh(axes: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``np.meshgrid(*axes, indexing="ij", sparse=True)`` as read-only views."""
    ndim = len(axes)
    return tuple(a.reshape((1,) * i + (-1,) + (1,) * (ndim - i - 1)) for i, a in enumerate(axes))


@lru_cache(maxsize=4)
def _grid_tables(grid: Grid) -> _GridTables:
    """The read-only tables of ``grid``, built once per distinct grid.

    Grids compare by sizes and half-lengths, so every equal grid gets the same
    arrays.
    """
    parity = sum(np.indices(grid.sizes, sparse=True)) % 2
    sign = 1.0 - 2.0 * parity
    scale = math.prod(grid.spacing(i) / math.sqrt(TAU) for i in range(grid.ndim))
    forward = sign * scale
    nyquist = np.zeros(grid.sizes, dtype=bool)
    for axis, n in enumerate(grid.sizes):
        nyquist[(slice(None),) * axis + (n // 2,)] = True
    band = np.where(nyquist, 0.0, forward)
    coords = [_read_only((np.arange(n) - n // 2) * grid.spacing(i))
              for i, n in enumerate(grid.sizes)]
    # fftfreq(N, d=dx) * 2*pi == pi*k/L in FFT storage order
    freqs = [_read_only(TAU * np.fft.fftfreq(n, d=grid.spacing(i)))
             for i, n in enumerate(grid.sizes)]
    return _GridTables(_read_only(forward), _read_only(sign / scale), _read_only(band),
                       tuple(coords), tuple(freqs), _mesh(coords), _mesh(freqs),
                       tuple(([(axis,), (), (axis,)], 1.0 / grid.sizes[axis])
                             for axis in range(-1, -grid.ndim - 1, -1)))


def _phys_to_spec(grid: Grid, values: np.ndarray, band_limited: bool = False,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Spectrum of ``values``, in ``out`` when given (not ``values`` itself);
    ``band_limited`` zeroes the Nyquist bins in the same multiply."""
    tables = grid._tables
    spec = np.empty(grid.sizes, dtype=np.complex128) if out is None else out
    for axes, _ in tables.fft_steps:
        values = _pocketfft.fft(values, 1.0, axes=axes, out=spec)
    spec *= tables.band_limited_forward if band_limited else tables.forward
    return spec


def _spec_to_phys(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    tables = grid._tables
    vals = spectrum * tables.inverse
    for axes, scale in tables.fft_steps:
        _pocketfft.ifft(vals, scale, axes=axes, out=vals)
    return vals


class Field:
    """Complex field on a :class:`Grid` with paired lazy representations.

    The given arrays are adopted, not copied (see the module docstring).
    """

    __slots__ = ("grid", "_values", "_spectrum")

    def __init__(self, grid: Grid, values=None, spectrum=None):
        if values is None and spectrum is None:
            raise ValueError("need physical values or a spectrum")
        self.grid = grid
        self._values = None
        self._spectrum = None
        if values is not None:
            values = np.asarray(values, dtype=np.complex128)
            if values.shape != grid.sizes:
                raise ValueError(f"values shape {values.shape} != grid sizes {grid.sizes}")
            self._values = values
        if spectrum is not None:
            spectrum = np.asarray(spectrum, dtype=np.complex128)
            if spectrum.shape != grid.sizes:
                raise ValueError(f"spectrum shape {spectrum.shape} != grid sizes {grid.sizes}")
            self._spectrum = spectrum

    @classmethod
    def from_values(cls, grid: Grid, values) -> "Field":
        return cls(grid, values=values)

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum) -> "Field":
        return cls(grid, spectrum=spectrum)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _spec_to_phys(self.grid, self._spectrum)
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = _phys_to_spec(self.grid, self._values)
        return self._spectrum

    def has_values(self) -> bool:
        return self._values is not None

    def shifted(self, offsets) -> "Field":
        """Exact spectral translation: returns x -> u(x + a)."""
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if offsets.shape != (self.grid.ndim,):
            raise ValueError("offset dimension mismatch")
        phase = np.zeros(self.grid.sizes)
        for axis, mesh in enumerate(self.grid.freq_mesh()):
            phase = phase + mesh * offsets[axis]
        return Field.from_spectrum(self.grid, self.spectrum * np.exp(1j * phase))


def _as_floats(a: np.ndarray) -> np.ndarray:
    """A complex array as its (re, im) float pairs, in C order; others as they are."""
    if a.dtype.kind != "c":
        return a
    if not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    return a.view(np.float64)


def real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> of two equal-shape arrays, summed by ``einsum`` on one thread.

    A complex array is read as its (re, im) float pairs, so this is the inner
    product of R^(2N); a real array is summed as it is laid out, strided or
    not.  ``np.linalg.norm`` and ``np.vdot`` hand large arrays to BLAS, which
    OpenBLAS threads: on 2 CPUs single 256^2 norm calls took up to 36 ms and
    left a worker spinning.  ``einsum`` sums with numpy's own loops.  The
    subscripts are given as text, which ``einsum`` parses faster than the
    equivalent index lists.
    """
    a = _as_floats(a)
    axes = "abcdefghijklmnopqrstuvwxyz"[:a.ndim]
    return float(np.einsum(f"{axes},{axes}", a, _as_floats(b)))


def flat_norm(a: np.ndarray) -> float:
    """2-norm of a real or complex array, on one thread (see :func:`real_dot`)."""
    return math.sqrt(real_dot(a, a))


def solve_small(a: np.ndarray, b: np.ndarray, rcond: float | None) -> np.ndarray:
    """x with a x = b for a small square float ``a``; ``lstsq`` where ``a`` is singular.

    The solve is the LAPACK ``gesv`` gufunc that ``np.linalg.solve`` calls,
    with the same floating-point error handling, so the answers are the same
    bits; it skips ``solve``'s argument handling, about 2 us of a 5 us call
    on a 5 x 5 system.  ``gesv`` flags an exactly zero pivot as an invalid
    operation; the answer is then the minimum-norm one of ``lstsq`` at
    ``rcond``.
    """
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore"):
            return _gesv(a, b)
    except FloatingPointError:
        return np.linalg.lstsq(a, b, rcond=rcond)[0]


def _abs_squared(a: np.ndarray) -> np.ndarray:
    """|a|^2 elementwise, in one new array: the values of ``np.abs(a) ** 2``."""
    out = np.abs(a)
    return np.square(out, out=out)


def energy_mass(f: Field, sym, sigma: int) -> tuple[float, float]:
    """Conserved energy and L2 mass for nonlinearity power sigma.

    ``sym`` gives p on the frequency mesh through ``on_grid`` (cached per
    symbol and grid, see :meth:`symbols.Symbol.on_grid`).  One |u_hat|^2 pass
    gives the kinetic term, and one |u|^2 pass both the mass and the
    potential term.
    """
    if not (sigma >= 1 and float(sigma).is_integer()):
        raise ValueError("sigma must be a positive integer")
    sigma = int(sigma)
    grid = f.grid
    kinetic = real_dot(_abs_squared(f.spectrum), sym.on_grid(grid)) * grid.freq_cell_volume()
    mod2 = _abs_squared(f.values)
    potential = real_dot(mod2 if sigma == 1 else mod2**sigma, mod2) * grid.cell_volume()
    energy = 0.5 * kinetic - potential / (2.0 * sigma + 2.0)
    mass = float(mod2.sum()) * grid.cell_volume()
    return energy, mass


# -- GNF1 field files ---------------------------------------------------------
#
# Header (ASCII, \n-terminated lines): GNF1 / n=<dim> / sizes=<N1,...> /
# L=<L1,...> / layout=interleaved-complex-f64-le / blank line, then the
# physical values in row-major order as little-endian complex128 (which is
# exactly interleaved re/im float64 pairs).


def write_gnf(path, f: Field) -> None:
    header = (
        "GNF1\n"
        f"n={f.grid.ndim}\n"
        f"sizes={','.join(str(n) for n in f.grid.sizes)}\n"
        f"L={','.join(repr(x) for x in f.grid.half_lengths)}\n"
        f"layout={GNF_LAYOUT}\n"
        "\n"
    )
    payload = np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def read_gnf(path) -> Field:
    """The field of a GNF1 file.  Its values are read straight into an aligned,
    read-only array: a view of the file's bytes at the header's length would
    be unaligned, and numpy runs unaligned operands through slower loops."""
    with open(path, "rb") as fh:
        blob = fh.read(4096)  # the whole header of every file write_gnf writes
        if b"\n\n" not in blob:
            blob += fh.read()
        sep = blob.find(b"\n\n")
        if sep < 0:
            raise GnfFormatError("missing blank line terminating the header", offset=len(blob))
        grid = _gnf_grid(blob[: sep + 1])
        payload = os.fstat(fh.fileno()).st_size - (sep + 2)
        expected = 16 * math.prod(grid.sizes)
        if payload == expected:
            values = np.empty(grid.sizes, dtype="<c16")
            fh.seek(sep + 2)
            payload = fh.readinto(values)  # short if the file was cut meanwhile
    if payload != expected:
        raise GnfFormatError(f"payload has {payload} bytes, expected {expected}", offset=sep + 2)
    values.flags.writeable = False
    return Field.from_values(grid, values)


def _gnf_grid(header: bytes) -> Grid:
    """The grid a GNF1 header describes; error offsets count from the file's start."""
    try:
        lines = header.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise GnfFormatError("header is not ASCII", offset=exc.start) from exc

    offset = 0
    if not lines or lines[0] != "GNF1":
        raise GnfFormatError("bad magic, expected 'GNF1'", offset=0)
    offset += len(lines[0]) + 1

    fields = {}
    for line in lines[1:]:
        if "=" not in line:
            raise GnfFormatError(f"malformed header line {line!r}", offset=offset)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise GnfFormatError(f"duplicate header field {key!r}", offset=offset)
        fields[key] = (value.strip(), offset)
        offset += len(line) + 1

    def take(key):
        if key not in fields:
            raise GnfFormatError(f"missing header field {key!r}", offset=offset)
        return fields[key]

    n_str, n_off = take("n")
    try:
        ndim = int(n_str)
    except ValueError:
        raise GnfFormatError(f"bad dimension {n_str!r}", offset=n_off)

    sizes_str, sz_off = take("sizes")
    try:
        sizes = tuple(int(tok) for tok in sizes_str.split(","))
    except ValueError:
        raise GnfFormatError(f"bad sizes {sizes_str!r}", offset=sz_off)

    l_str, l_off = take("L")
    try:
        half_lengths = tuple(float(tok) for tok in l_str.split(","))
    except ValueError:
        raise GnfFormatError(f"bad box lengths {l_str!r}", offset=l_off)

    layout, layout_off = take("layout")
    if layout != GNF_LAYOUT:
        raise GnfFormatError(f"unsupported layout {layout!r}", offset=layout_off)

    try:
        grid = Grid(sizes, half_lengths)
    except ValueError as exc:
        raise GnfFormatError(str(exc), offset=sz_off) from exc
    if len(sizes) != ndim:
        raise GnfFormatError("n does not match the sizes list", offset=n_off)
    return grid
