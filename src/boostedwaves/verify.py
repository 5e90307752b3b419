"""Support masks, connectivity, phase fits, symmetry reports.

All analyses run on the centered (fftshift) view of the frequency lattice so
that adjacency approximates the continuum picture without periodic
wrap-around.  Connectivity is counted on the runs of the mask along its last
axis (:func:`is_connected`).  The centered mask is shifted once per
:class:`SupportSet`, by block copies (:func:`_centered`).

:func:`support_set` is the one constructor of a field's support: it takes
|Q_hat| once, refuses the non-finite and zero fields, and keeps |Q_hat| as
the support's ``modulus``.  So a report (:func:`symmetry_report`, and
:func:`sweep_defects` for a sweep row) makes one pass over the spectrum, and
the modulus weighs the phase fit, the s2 norm and the rearrangement defect.

:func:`symmetry_report` runs on two threads, split along the data its stages
read.  The calling thread forms the field's values, allocates the four
buffers of a residual (:func:`solver.residual_scratch`: one real and three
complex lattice-sized arrays) and starts one worker thread, all before it
cuts the support.  The worker first takes what reads only the values: s1,
into the first complex buffer, then the values half of the unit residual of
(P_v(D) + omega) Q = |Q|^{2 sigma} Q, the spectrum of |Q|^{2 sigma} Q
(:func:`solver._nonlinear_spectrum`, in the real and the first two complex
buffers).  It then waits on a ``threading.Event``, which the calling thread
sets, in a ``finally``, once :func:`support_set` has formed the spectrum and
|Q_hat|; if the cut refused the field, the worker stops there.  After the
handoff the worker forms only the spectral half of the residual, (P_v +
omega) Q_hat and the two norms (:func:`solver.unit_residual`, given the
nonlinearity's spectrum), and last the rearrangement defect: it sorts the
support's ``modulus`` in the real buffer, assigns it into the first complex
buffer and forms the difference in the second
(:func:`_modulus_rearranged_defect`).  Meanwhile the calling thread makes
only the support cut, the phase fit and s2.  Both threads spend their time in
numpy's pocketfft transforms, sorts and ufunc loops, which release the GIL on
lattice-sized arrays, so on two cores they overlap.  On the 256^2 ground
state (2-core machine, one BLAS thread, each stage timed inside the report,
mean of the fastest 10 % of 400 reports, three processes) the calling thread
took 1.3 to 1.5 ms for the support cut, 2.0 to 2.1 ms for the phase fit and
0.47 to 0.50 ms for s2; the worker took 0.41 to 0.44 ms for s1, 1.5 to 1.6 ms
for the nonlinearity's spectrum, 0.53 to 0.61 ms for the spectral half of
the residual and 0.88 to 0.92 ms for the rearrangement defect.  The two
lanes ended 3.5 to 3.8 ms and 4.0 to 4.3 ms into the report, and the worker
did not wait at the handoff.

No call on either side of the overlap may hand a lattice-sized operand to
BLAS (``np.vdot``, ``np.dot``, ``@``, ``np.linalg``): OpenBLAS threads such a
call over every core, and the two threads then compete for them.  With the
phase-fit residual taken by ``np.vdot``, the fastest of 300 reports on the
256^2 ground state took 6.6 to 7.0 ms, against 4.0 to 4.7 ms with one BLAS
thread; norms, the unit residual's among them, go through
:func:`fields.flat_norm`.  The moment contractions of the phase fit
(:func:`_moments`) are such products, of the lattice with a three-column
basis: at 512^2 the fastest of 100 reports took 16.9 to 17.1 ms with
OpenBLAS's default threads and 16.6 to 17.7 ms with one.

The worker allocates no lattice-sized array: every temporary of its four
stages lives in the calling thread's four buffers, which are free once the
residual has returned, and the problem's weight and the grid's tables are
built before any report.  So the calling thread's heap takes the same
layout in every report, and a repeated report maps no fresh pages
(``cli._fix_heap_thresholds``), whichever axis it rearranges about.  A
worker that allocated its own temporaries in the calling thread's heap
(glibc capped at one arena) made 13 of 60 repeated 256^2 reports (ten fresh
processes, six each after a first one) map 130 to 1,030 fresh pages.  The
worker's small temporaries go to its own glibc arena: after 300 256^2
``verify`` runs in one process it had grown to 144 KiB (see
:func:`_s1_defect` for the 256 KiB that a strided subtraction would add).

Starting and joining a thread costs 40 to 70 us, and on small lattices the
two threads cost more than their overlap saves: the fastest of 3,000 1D
reports of 1,024 points took 0.17 to 0.18 ms with the stages run one after
another and 0.32 to 0.44 ms on two threads.  There is no switch by
size; the one code path serves every lattice, and no measured workload makes
small reports.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DisconnectedSupportError, ZeroFieldError
from .fields import TAU, Field, flat_norm, solve_small
from .rearrange import rearrange_modulus
from .solver import Problem, _nonlinear_spectrum, residual_scratch, unit_residual

DEFECT_MAX = 1e-5  # gate of s1, s2 and the rearrangement defect in a verdict
SUPPORT_TAU = 1e-8  # the support is where |Q_hat| exceeds this share of its maximum


@dataclass
class SupportSet:
    """Thresholded spectral support: mask = { |Q_hat| > SUPPORT_TAU * max |Q_hat| }.

    ``modulus`` is the |Q_hat| that :func:`support_set` cut the mask from, FFT
    order; the phase fit weighs by it.  None for a mask given directly.
    """

    mask: np.ndarray  # boolean, FFT order
    modulus: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def centered(self) -> np.ndarray:
        """The mask in centered (fftshift) order, shifted once per support."""
        return _centered(self.mask)


@lru_cache(maxsize=8)
def _half_turns(shape: tuple[int, ...]) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """(destination, source) slices of the blocks that ``fftshift`` moves.

    Along an axis of n points fftshift rolls by h = n // 2: the first n - h
    points go to [h, n) and the last h to [0, h).  A block takes one of these
    two moves along each axis.
    """
    moves = [((slice(n // 2, None), slice(None, n - n // 2)),
              (slice(None, n // 2), slice(n - n // 2, None))) for n in shape]
    return tuple((tuple(dst for dst, _ in block), tuple(src for _, src in block))
                 for block in itertools.product(*moves))


def _centered(a: np.ndarray) -> np.ndarray:
    """``np.fft.fftshift(a)`` by 2^n block copies.

    ``np.roll`` spends about 5 us of a 7 us shift of 1,024 points on its
    argument handling; a report shifts three arrays.
    """
    out = np.empty_like(a)
    for dst, src in _half_turns(a.shape):
        out[dst] = a[src]
    return out


def support_set(f: Field) -> SupportSet:
    """The bins where |f_hat| exceeds :data:`SUPPORT_TAU` times its maximum;
    |f_hat|, taken once, is kept as the ``modulus``.  A field with a NaN or
    infinite value raises ``ValueError``, the zero field :class:`ZeroFieldError`."""
    with np.errstate(invalid="ignore", over="ignore"):  # refused below
        mag = np.abs(f.spectrum)
    top = float(mag.max())  # NaN if any |f_hat| is NaN
    if not math.isfinite(top):
        raise ValueError("support of a field with non-finite values")
    if top == 0.0:
        raise ZeroFieldError("support of the zero field is empty")
    return SupportSet(mag > SUPPORT_TAU * top, mag)


def _line_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat keys of the starts and ends of the runs of True along the last axis.

    The mask is read as lines along its last axis, of M points each; a point
    at position p of line l has key l (M + 1) + p, so a run [s, e) on line l
    has the start key l (M + 1) + s and the end key l (M + 1) + e.  Both key
    arrays are ascending, and a run never crosses a line since position M,
    past every line's end, is never True.
    """
    m = mask.shape[-1]
    flat = np.zeros(mask.size // m * (m + 1) + 1, dtype=bool)  # flat[1 + key]; flat[0] is False
    flat[1:].reshape(-1, m + 1)[:, :m] = mask.reshape(-1, m)
    edges = np.flatnonzero(flat[1:] != flat[:-1])  # a start, then its end, and so on
    return edges[0::2], edges[1::2]


def _run_contacts(shape: tuple[int, ...], starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of runs that share a face: adjacent lines, overlapping spans.

    Along an axis a other than the last, line l' = l + stride_a is the
    neighbour of line l one step up.  The runs of l' that overlap the run
    [s, e) of l are those ending after s and starting before e.  The runs of
    a line are disjoint and sorted, so these are the runs from the first end
    key above l' (M + 1) + s to the last start key below l' (M + 1) + e,
    found by ``searchsorted``; no key of another line lies between the two.
    """
    width = shape[-1] + 1
    line, first = np.divmod(starts, width)
    last = ends - line * width
    lead = shape[:-1]
    pairs_i, pairs_j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for axis, n in enumerate(lead):
        stride = math.prod(lead[axis + 1:])
        runs = np.flatnonzero(line // stride % n < n - 1)  # their line has a neighbour
        base = (line[runs] + stride) * width
        lo = np.searchsorted(ends, base + first[runs], side="right")
        hi = np.searchsorted(starts, base + last[runs], side="left")
        count = np.maximum(hi - lo, 0)
        pairs_i.append(np.repeat(runs, count))
        # lo, lo + 1, .., hi - 1 for each run, concatenated
        pairs_j.append(np.repeat(lo + count - np.cumsum(count), count) + np.arange(count.sum()))
    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def _component_count(nodes: int, i: np.ndarray, j: np.ndarray) -> int:
    """Connected components of the graph on ``nodes`` nodes with edges (i, j).

    Hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 1982):
    ``parent`` points from each node to a node of no larger index in its
    component.  Each round first jumps every pointer to its root, then hooks
    the larger root of each edge whose ends have different roots under the
    smaller one, so the number of roots falls in every round until each
    component has one.  Without edges every node is its own component.
    """
    if not i.size:
        return nodes
    parent = np.arange(nodes)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        root_i, root_j = parent[i], parent[j]
        split = root_i != root_j
        if not split.any():
            return int(np.count_nonzero(parent == np.arange(nodes)))
        np.minimum.at(parent, np.maximum(root_i, root_j)[split],
                      np.minimum(root_i, root_j)[split])


def is_connected(s: SupportSet) -> bool:
    """True iff the face-adjacent lattice cells of the mask form one component.

    The nodes are the runs of True along the last axis of the centered mask.
    Two runs are joined when their lines are neighbours along another axis
    and their spans overlap (:func:`_run_contacts`); without periodic wrap,
    as the centered lattice approximates the continuum.  An empty mask has no
    component.
    """
    starts, ends = _line_runs(s.centered)
    if starts.size < 2:  # one run, or none
        return starts.size == 1
    i, j = _run_contacts(s.centered.shape, starts, ends)
    return _component_count(starts.size, i, j) == 1


@dataclass
class PhaseFit:
    alpha: float
    beta: tuple[float, ...]
    residual: float


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    """Wrap the angles ``d`` in place to d - 2 pi rint(d / 2 pi) and return them.

    The result lies in [-pi, pi]; either end can occur, at the ties of
    ``rint``.  No float ``%``, which costs several times more per element.
    """
    turns = d / TAU
    np.rint(turns, out=turns)
    turns *= TAU
    d -= turns
    return d


def _broadcast(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    return vec.reshape((1,) * axis + (-1,) + (1,) * (ndim - axis - 1))


def _minus_affine(arr, const, slope, coords, out=None) -> np.ndarray:
    """arr - (const + slope . xi), with xi broadcast from the axes' ``coords``."""
    out = np.subtract(arr, const + slope[0] * coords[0], out=out)
    for axis in range(1, len(coords)):
        out -= slope[axis] * coords[axis]
    return out


def _moments(arr: np.ndarray, bases: list[np.ndarray]) -> np.ndarray:
    """Tensor of the sums of ``arr`` times one column of each axis' basis.

    Entry [i_0, .., i_{n-1}] is the sum over the lattice of
    arr * bases[0][:, i_0] * .. * bases[n-1][:, i_{n-1}], one contraction per
    axis; the first one, along the last axis, makes the only pass over ``arr``.
    """
    out = arr @ bases[-1]
    for axis in reversed(range(arr.ndim - 1)):
        out = np.moveaxis(out, axis, -1) @ bases[axis]
    return out.transpose()


@lru_cache(maxsize=4)
def _phase_lattice(grid) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per axis of ``grid``: the centered frequencies, shaped to broadcast, and
    the basis (1, xi_j, xi_j^2) of :func:`_moments`, built once per grid."""
    ndim = grid.ndim
    coords = [_broadcast((np.arange(n) - n // 2) * grid.freq_step(axis), axis, ndim)
              for axis, n in enumerate(grid.sizes)]
    bases = [np.stack([np.ones(c.size), c.ravel(), c.ravel() ** 2], axis=1) for c in coords]
    for table in coords + bases:
        table.setflags(write=False)
    return coords, bases


@lru_cache(maxsize=3)
def _gram_index(ndim: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Indices of the Gram matrix and the right side of the phase fit in the
    moment tensors of :func:`_moments`.

    The columns 1, xi_0, .., xi_{n-1} are powers of the axis coordinates (the
    rows of ``powers``); Gram entry (a, b) is the moment of the summed powers
    a + b, and right-side entry a the moment of a.
    """
    powers = np.eye(ndim + 1, ndim, k=-1, dtype=int)
    summed = powers[:, None, :] + powers[None, :, :]
    return tuple(summed[..., j] for j in range(ndim)), tuple(powers.T)


def phase_affinity(f: Field, s: SupportSet | None = None) -> PhaseFit:
    """Fit arg Q_hat ~ alpha + beta . xi over the connected support.

    A slope guess beta0 is read from the neighbour increments on the n axis
    lines through the maximum-modulus bin xi*: along each axis j, over the
    pairs of that line whose two bins are in the support, the |prod|-weighted
    mean of arg prod with prod = Q_hat(xi + e_j) conj Q_hat(xi), divided by
    the frequency step (the phase-difference frequency estimator of Kay, IEEE
    Trans. ASSP 37, 1989).  Here arg prod is the wrapped difference of
    arg Q_hat between the two bins, and |prod| = |Q_hat(xi + e_j)| |Q_hat(xi)|
    with |Q_hat| set to 0 off the support.  The phase is then unwrapped by
    wrapping it around the affine guess anchored at xi*:
    y = guess + wrap(arg Q_hat - guess) with guess = p + beta0 . xi and
    p = arg Q_hat(xi*) - beta0 . xi*.

    The guess only places the 2 pi cuts of that unwrap.  Under an affine
    phase every pair of the lattice has the same wrapped increment, so the
    pairs of the peak's lines give the guess that all pairs would, up to
    rounding, and alpha, beta and the residual below change only by
    rounding; in one dimension the line is the lattice.  The lines cost n
    products of one line each, where all pairs would cost n lattice-sized
    ones.  A phase that is not affine may give other cuts, hence another fit,
    than a guess over every pair would; its spectrum is far from real after
    either fit is removed, so its s2 defect, and its verdict, stay "fail".

    Finally y is fitted by weighted least squares with weights |Q_hat|^2 on
    the support and 0 off it.  The fit solves the (n+1) x (n+1) moment (Gram)
    system of the columns 1, xi_0, .., xi_{n-1}, whose entries are weighted
    sums of 1, xi_j and xi_j xi_k over the dense centered lattice, each taken
    axis by axis.  The weights |Q_hat| are the support's ``modulus`` when it
    has one.  Where the support holds two adjacent bins along every axis j,
    an affine function vanishing on it has no xi_j term for any j, so it is
    zero: the Gram matrix is nonsingular and LAPACK ``gesv`` solves it
    (:func:`fields.solve_small`).  Such a pair is looked for on the peak's
    line, and over the whole mask only where that line has none.  Where the
    support is one bin thick along an axis (a single bin, or a line), that
    xi_j is constant on it, the Gram matrix is singular and the fit is not
    unique.  ``lstsq`` on the Gram matrix then returns the minimum-norm
    answer, the same as a least-squares solve of the per-point system: the
    pseudo-inverse solution of G x = A^T b with G = A^T A is A^+ b.  Rounding
    leaves the zero singular values of G below about one ulp of the largest
    (measured on single bins, lines and planes of up to 512 bins), under the
    cut of ``lstsq`` at (n+1) ulp.

    ``s`` defaults to :func:`support_set` of ``f``.  Raises
    :class:`DisconnectedSupportError` when the mask has several components.
    """
    if s is None:
        s = support_set(f)
    if not is_connected(s):
        raise DisconnectedSupportError("phase unwrapping needs a connected support")

    grid = f.grid
    spec_c = _centered(f.spectrum)
    ndim = spec_c.ndim
    raw = np.arctan2(spec_c.imag, spec_c.real)  # np.angle, without its argument handling
    mag = np.abs(spec_c) if s.modulus is None else _centered(s.modulus)
    mag *= s.centered  # |Q_hat| on the support, 0 off it
    coords, bases = _phase_lattice(grid)

    start = np.unravel_index(int(np.argmax(mag)), mag.shape)
    beta0 = np.zeros(ndim)
    thick = True  # two adjacent support bins along every axis
    for axis in range(ndim):
        line = start[:axis] + (slice(None),) + start[axis + 1:]  # through xi*
        mag_l, raw_l = mag[line], raw[line]
        size = mag_l[1:] * mag_l[:-1]
        total = float(size.sum())
        if total > 0.0:
            turn = _wrap_angle(raw_l[1:] - raw_l[:-1])
            turn *= size
            beta0[axis] = float(turn.sum()) / (total * grid.freq_step(axis))
        else:  # no pair on the peak's line: look for one anywhere along the axis
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            thick = thick and bool(np.logical_and(s.centered[lo], s.centered[hi]).any())

    at_start = [float(c.ravel()[i]) for c, i in zip(coords, start)]
    anchor = float(raw[start]) - float(np.dot(beta0, at_start))
    guess = anchor + beta0[0] * coords[0]
    for axis in range(1, ndim):
        guess = guess + beta0[axis] * coords[axis]
    y = _wrap_angle(raw - guess)
    y += guess

    w = np.square(mag)
    sums_w = _moments(w, bases)
    sums_wy = _moments(w * y, bases)
    gram_at, rhs_at = _gram_index(ndim)
    gram, rhs = sums_w[gram_at], sums_wy[rhs_at]
    if thick:
        sol = solve_small(gram, rhs, rcond=None)
    else:
        sol, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    alpha, beta = float(sol[0]), sol[1:]

    miss = _minus_affine(y, alpha, beta, coords, out=y)
    miss *= mag
    residual = math.sqrt(float(np.square(miss, out=miss).sum()) / float(sums_w.flat[0]))
    return PhaseFit(math.remainder(alpha, TAU), tuple(float(b) for b in beta), residual)


@dataclass
class SymmetryReport:
    """Quantitative defects for the ground-state symmetry properties.

    ``s1_defect``: worst relative deviation under transverse orthogonal grid
    symmetries (0 in one dimension). ``s2_defect``: relative size of
    Q - conj(Q(-x)) after removing the fitted affine spectral phase.
    ``modulus_rearranged_defect``: distance of |Q_hat| from its transverse
    rearrangement.  ``unit_residual``: relative residual of the profile
    equation (P_v(D) + omega) Q = |Q|^{2 sigma} Q (:func:`solver.unit_residual`).
    """

    s1_defect: float
    s2_defect: float
    modulus_rearranged_defect: float
    phase: PhaseFit | None
    connected: bool
    unit_residual: float

    def passes(self, tol: float) -> bool:
        """The verdict: a connected support, s1, s2 and the rearrangement
        defect at most :data:`DEFECT_MAX`, and the unit residual at most
        ``tol``.  A NaN defect or residual fails."""
        return (
            self.connected
            and self.s1_defect <= DEFECT_MAX
            and self.s2_defect <= DEFECT_MAX
            and self.modulus_rearranged_defect <= DEFECT_MAX
            and self.unit_residual <= tol
        )


def _s1_defect(f: Field, axis: int, diff: np.ndarray) -> float:
    """Worst relative change of Q under a transverse reflection or axis swap.

    The periodic reflection about the centered origin along axis t maps index
    i to -i mod N: bin 0 stays and bins 1 .. N-1 reverse.  The reflection is
    copied into ``diff``, a complex lattice-sized buffer, by two slice
    assignments, and Q minus it is formed there by one subtraction of whole
    arrays.  A subtraction over the row slices themselves is strided, so
    numpy runs it through an iterator with two 128 KiB buffers: on the 256^2
    lattice it took 0.17 ms against 0.11 ms, and on the report's worker
    thread its buffers grew that thread's heap by 256 KiB.
    """
    grid = f.grid
    if grid.ndim == 1:
        return 0.0
    vals = f.values
    denom = flat_norm(vals)
    worst = 0.0
    transverse = [i for i in range(grid.ndim) if i != axis]
    for t in transverse:
        lead = (slice(None),) * t
        diff[lead + (0,)] = vals[lead + (0,)]
        diff[lead + (slice(1, None),)] = vals[lead + (slice(None, 0, -1),)]
        np.subtract(vals, diff, out=diff)
        worst = max(worst, flat_norm(diff) / denom)
    if len(transverse) == 2:
        t0, t1 = transverse
        same_geometry = (
            grid.sizes[t0] == grid.sizes[t1]
            and grid.half_lengths[t0] == grid.half_lengths[t1]
        )
        if same_geometry:
            np.subtract(vals, np.swapaxes(vals, t0, t1), out=diff)
            worst = max(worst, flat_norm(diff) / denom)
    return worst


def _s2_defect(f: Field, fit: PhaseFit | None, mag: np.ndarray) -> float:
    spec = f.spectrum
    if fit is not None:
        # e^{-i(alpha + beta . xi)} = prod_j e^{-i (beta_j xi_j + [j = 0] alpha)}:
        # n one-dimensional exponentials, broadcast onto the spectrum
        turns = [b * xi for b, xi in zip(fit.beta, f.grid.freq_mesh())]
        turns[0] = turns[0] + fit.alpha
        spec = spec * np.exp(-1j * turns[0])
        for turn in turns[1:]:
            spec *= np.exp(-1j * turn)
    # conjugation symmetry Q(x) = conj(Q(-x)) is exactly realness of Q_hat
    return 2.0 * flat_norm(spec.imag) / flat_norm(mag)


def _floats(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading floats of the C-contiguous buffer ``buf``, shaped ``shape``."""
    return buf.reshape(-1).view(np.float64)[:math.prod(shape)].reshape(shape)


def _modulus_rearranged_defect(f: Field, axis: int, mag: np.ndarray, scratch=None) -> float:
    """||mag - R mag|| / ||mag|| for |Q_hat| = ``mag`` and its transverse
    rearrangement R mag about ``axis`` (:func:`rearrange.rearrange_modulus`).

    With ``scratch`` (:func:`solver.residual_scratch`), R sorts in the real
    buffer and assigns into the first complex one, and the difference goes to
    the second; without it, into new arrays.  The difference is formed
    C-contiguous in the lattice's layout, whatever the axis, so its norm sums
    in one order.
    """
    if f.grid.ndim == 1:
        # the transverse operator is void in one dimension
        return 0.0
    if scratch is None:
        work = out = None
        diff = np.empty_like(mag)
    else:
        work, out, diff = (_floats(buf, mag.shape) for buf in scratch[:3])
    rearranged = rearrange_modulus(f.grid, mag, axis, work, out)
    return flat_norm(np.subtract(mag, rearranged, out=diff)) / flat_norm(mag)


def _phase_fit(f: Field, s: SupportSet) -> PhaseFit | None:
    """The phase fit on the support ``s``, None where it is disconnected."""
    try:
        return phase_affinity(f, s)  # labels the support once, for both answers
    except DisconnectedSupportError:
        return None


def _worker_stages(out: list, prob: Problem, f: Field, axis: int, cut: list,
                   handoff: threading.Event, scratch) -> None:
    """The report's worker: s1 and the nonlinearity's spectrum, which read
    only the values, then, once ``handoff`` is set, the rest of the unit
    residual and the rearrangement defect of the support in ``cut``.

    Appends ``(s1, residual, modrearr)`` to ``out``, or the exception it
    raised, for the calling thread to re-raise; nothing when ``cut`` is empty
    (the support was refused).  Every lattice-sized temporary lives in
    ``scratch``: s1's difference in its first complex buffer, before the
    residual takes all four, and the rearrangement in three of them after.
    """
    try:
        # a NaN or infinite field is refused by the support cut, not here,
        # and its values reach both stages before the cut
        with np.errstate(invalid="ignore", over="ignore"):
            s1 = _s1_defect(f, axis, scratch[1])
            nl_spec = _nonlinear_spectrum(prob, f, scratch)
        handoff.wait()
        if not cut:
            return
        residual = unit_residual(prob, f, scratch, nl_spec)
        out.append((s1, residual, _modulus_rearranged_defect(f, axis, cut[0].modulus, scratch)))
    except BaseException as exc:
        out.append(exc)


def symmetry_report(f: Field, prob: Problem, axis: int = 0) -> SymmetryReport:
    """Populate all symmetry defects, and the unit residual of ``prob``, for a
    candidate ground state.

    A disconnected support does not abort the report: the phase fit is left
    unset (callers treat that as failure) and the conjugation defect is then
    computed without affine-phase removal.  A field on another grid than
    ``prob.grid`` or with a NaN or infinite value raises ``ValueError``, and
    the zero field :class:`ZeroFieldError`.

    The stages run on two threads (see the module docstring); the values are
    those of the stages run one after another.  The worker is joined before
    the report returns or raises.  An error of this thread's stages
    propagates; otherwise an error of the worker's is re-raised here.
    """
    if f.grid != prob.grid:
        raise ValueError("the field's grid differs from the problem's")
    with np.errstate(invalid="ignore", over="ignore"):  # the support cut refuses non-finite fields
        _ = f.values  # read by both threads: formed once, here
    scratch = residual_scratch(prob.grid)
    cut: list = []
    handoff = threading.Event()
    done: list = []
    worker = threading.Thread(target=_worker_stages,
                              args=(done, prob, f, axis, cut, handoff, scratch),
                              name="unit-residual")
    worker.start()
    try:
        try:
            cut.append(support_set(f))  # forms the spectrum
        finally:
            handoff.set()
        s = cut[0]
        fit = _phase_fit(f, s)
        s2 = _s2_defect(f, fit, s.modulus)
    finally:
        worker.join()
    if isinstance(done[0], BaseException):
        raise done[0]
    s1, residual, modrearr = done[0]
    return SymmetryReport(
        s1_defect=s1,
        s2_defect=s2,
        modulus_rearranged_defect=modrearr,
        phase=fit,
        connected=fit is not None,
        unit_residual=residual,
    )


def sweep_defects(f: Field, axis: int = 0) -> tuple[float, float]:
    """``(s2_defect, modulus_rearranged_defect)``, the defects a sweep row writes.

    The values and errors of :func:`symmetry_report`, from the same stages
    on one thread, without its s1 and residual.
    """
    s = support_set(f)
    return (_s2_defect(f, _phase_fit(f, s), s.modulus),
            _modulus_rearranged_defect(f, axis, s.modulus))
