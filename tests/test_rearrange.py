import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import boostedwaves as bw
from boostedwaves.rearrange import _distance_order, _sort_assign
from references import norm_l2


def centered(n):
    return np.arange(n) - n // 2


# -- schwarz -------------------------------------------------------------------
# Schwarz symmetrization, the full sort-and-assign, through
# ``fourier_rearrange(f, "full")`` on the FFT-ordered frequency lattice.


def test_schwarz_indicator_centers():
    g = bw.Grid.make(256, 8.0)
    xi = g.freqs(0)
    vals = ((xi > 1.0) & (xi < 3.0)).astype(float)
    out = bw.fourier_rearrange(bw.Field.from_spectrum(g, vals.astype(complex)), "full")
    # centered ball of equal point count, +k before -k
    count = int(vals.sum())
    order = np.argsort(np.abs(xi), kind="stable")
    expected = np.zeros_like(vals)
    expected[order[:count]] = 1.0
    assert count > 1
    assert np.array_equal(out.spectrum, expected)


def test_schwarz_fixed_point():
    g = bw.Grid.make(64, 8.0)
    f = bw.Field.from_spectrum(g, np.exp(-np.abs(g.freqs(0)) / 3.0).astype(complex))
    once = bw.fourier_rearrange(f, "full")
    assert np.array_equal(once.spectrum, bw.fourier_rearrange(once, "full").spectrum)


def test_schwarz_four_point_oracle():
    # four nonzero moduli on the 8-point lattice, bins at k dxi for
    # k = 0, 1, 2, 3, -4, -3, -2, -1
    g = bw.Grid.make(8, 4.0)
    xi = g.freqs(0)
    spec = np.array([0.0, 3j, 0.0, -1.0, 0.0, 2.0, 0.0, -4j])
    out = bw.fourier_rearrange(bw.Field.from_spectrum(g, spec), "full").spectrum
    # brute-force oracle: |u_hat| sorted descending onto the bins ranked by
    # (|xi|, flat index)
    ranked = sorted(range(8), key=lambda i: (abs(xi[i]), i))
    expected = np.zeros(8)
    for rank, idx in enumerate(ranked):
        expected[idx] = sorted(np.abs(spec), reverse=True)[rank]
    assert np.array_equal(out, expected)
    assert np.array_equal(out, np.array([4.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0]))


@given(st.data())
def test_schwarz_preserves_multiset(data):
    shape = data.draw(st.sampled_from([(8,), (8, 8)]))
    size = int(np.prod(shape))
    values = data.draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                min_size=size, max_size=size))
    spec = np.array(values, dtype=complex).reshape(shape)
    out = bw.fourier_rearrange(bw.Field.from_spectrum(bw.Grid.make(shape, 4.0), spec), "full")
    assert np.all(out.spectrum.imag == 0)
    assert sorted(out.spectrum.real.ravel().tolist()) == sorted(np.abs(values).tolist())


# -- steiner -------------------------------------------------------------------
# Transverse Steiner rearrangement about axis 0 on given coordinates: the
# sort-and-assign that ``rearrange_modulus`` runs on the frequency lattice.


def steiner(values, coord_axes):
    return _sort_assign(values, _distance_order(coord_axes, 0), 0)


def test_steiner_tensor_product_fixed_point():
    g = bw.Grid.make((32, 32), 6.0)
    x, y = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    vals = np.exp(-np.abs(x)) * np.exp(-(y**2))
    out = steiner(vals, [g.coords(0), g.coords(1)])
    assert np.max(np.abs(out - vals)) < 1e-15


def test_steiner_centers_shifted_bumps():
    g = bw.Grid.make((16, 64), (2.0, 8.0))
    x1 = g.coords(0)
    x2 = g.coords(1)
    vals = np.zeros((16, 64))
    for i, a in enumerate(0.5 * np.sin(x1)):
        vals[i] = (np.abs(x2 - a) < 1.0).astype(float)
    out = steiner(vals, [x1, x2])
    order = np.argsort(np.abs(x2), kind="stable")
    for i in range(16):
        count = int(vals[i].sum())
        expected_slice = np.zeros(64)
        expected_slice[order[:count]] = 1.0
        assert np.array_equal(out[i], expected_slice)


def test_steiner_preserves_slice_multisets():
    rng = np.random.default_rng(9)
    g = bw.Grid.make((16, 16), 4.0)
    vals = rng.uniform(size=(16, 16))
    out = steiner(vals, [g.coords(0), g.coords(1)])
    for i in range(16):
        assert np.array_equal(np.sort(out[i]), np.sort(vals[i]))


def test_steiner_idempotent_exactly():
    rng = np.random.default_rng(21)
    coords = [centered(8).astype(float), centered(16).astype(float)]
    vals = rng.uniform(size=(8, 16))
    once = steiner(vals, coords)
    twice = steiner(once, coords)
    assert np.array_equal(once, twice)


# -- spectral rearrangements ----------------------------------------------------


def test_fourier_rearrange_fixed_point_of_symmetric_spectrum():
    g = bw.Grid.make(128, 10.0)
    xi = g.freqs(0)
    f = bw.Field.from_spectrum(g, np.exp(-(xi**2)).astype(complex))
    out = bw.fourier_rearrange(f, "full")
    assert np.max(np.abs(out.spectrum - f.spectrum)) < 1e-15


def test_fourier_rearrange_preserves_l2():
    rng = np.random.default_rng(2)
    g = bw.Grid.make((32, 32), 5.0)
    spec = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    f = bw.Field.from_spectrum(g, spec)
    for mode in ("full", "axial", "modulus"):
        out = bw.fourier_rearrange(f, mode)
        assert norm_l2(out) == pytest.approx(norm_l2(f), rel=1e-12)
        assert np.all(out.spectrum.real >= 0)
        assert np.all(out.spectrum.imag == 0)


def test_modulus_mode_conjugation_symmetry():
    # f(x) = sech(x - 5) e^{3ix}: the dephased field satisfies f(x) = conj(f(-x))
    g = bw.Grid.make(512, 20 * np.pi)
    x = g.coords(0)
    f = bw.Field.from_values(g, (1 / np.cosh(x - 5.0)) * np.exp(3j * x))
    out = bw.fourier_rearrange(f, "modulus")
    assert np.max(np.abs(np.abs(out.spectrum) - np.abs(f.spectrum))) < 1e-14
    vals = out.values
    reflected = np.conj(np.roll(vals[::-1], 1))
    assert np.max(np.abs(vals - reflected)) < 1e-12 * np.max(np.abs(vals))


def test_axial_rearrangement_cylindrical_symmetry():
    # spectra with even transverse modulus and a dominant DC bin per slice
    # (the class spectra of cylindrically symmetric states belong to) come out
    # exactly reflection symmetric: tied pair values occupy the +-k positions
    rng = np.random.default_rng(4)
    g = bw.Grid.make((32, 32), 5.0)
    mag = rng.uniform(0.5, 1.5, size=(32, 32))
    mag = 0.5 * (mag + np.roll(mag[:, ::-1], 1, axis=1))  # even in the transverse axis
    mag[:, 0] = 3.0  # per-slice maximum at the DC bin
    mag[:, 16] = 0.0  # per-slice minimum at the Nyquist bin
    f = bw.Field.from_spectrum(g, mag.astype(complex))
    out = bw.fourier_rearrange(f, "axial", axis=0)
    s = out.spectrum
    # transverse reflection on the FFT lattice: index k pairs with -k mod N
    reflected = np.roll(s[:, ::-1], 1, axis=1)
    scale = np.max(np.abs(s))
    assert np.max(np.abs(s - reflected)) < 1e-12 * scale
    # the rearrangement genuinely permuted within slices
    assert not np.array_equal(s, f.spectrum)


def test_axial_mode_rejects_1d():
    g = bw.Grid.make(16, 4.0)
    f = bw.Field.from_values(g, np.ones(16, dtype=complex))
    with pytest.raises(ValueError):
        bw.fourier_rearrange(f, "axial")


def test_rearranged_field_peaks_at_origin():
    rng = np.random.default_rng(13)
    g = bw.Grid.make(256, 15.0)
    xi = g.freqs(0)
    spec = (rng.standard_normal(256) + 1j * rng.standard_normal(256)) * np.exp(-(xi**2) / 4)
    f = bw.fourier_rearrange(bw.Field.from_spectrum(g, spec), "full")
    vals = f.values
    center = g.sizes[0] // 2
    assert np.all(np.abs(vals) <= vals[center].real * (1 + 1e-12))
