import numpy as np
import pytest
from scipy.integrate import quad

import boostedwaves as bw
from boostedwaves import fields
from references import galilean_gauge, norm_l2, norm_lp, nyquist_mask, quad_form


def test_grid_validation():
    with pytest.raises(ValueError):
        bw.Grid.make(6, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        bw.Grid.make(4, 10.0)  # below the minimum size
    with pytest.raises(ValueError):
        bw.Grid.make((8, 8, 8, 8), 1.0)  # dimension > 3
    g = bw.Grid.make((16, 32), (2.0, 4.0))
    assert g.spacing(0) * g.sizes[0] == pytest.approx(2 * g.half_lengths[0])
    assert g.freq_step(1) == pytest.approx(np.pi / 4.0)


def test_constant_transforms_to_dc():
    g = bw.Grid.make(64, 5.0)
    f = bw.Field.from_values(g, np.ones(64, dtype=complex))
    spec = f.spectrum
    off_dc = np.abs(spec[1:])
    assert np.max(off_dc) < 1e-12 * np.abs(spec[0])


def test_gaussian_transform_pair():
    # e^{-x^2/2} is its own transform under the unitary convention
    g = bw.Grid.make(512, 20.0)
    x = g.coords(0)
    f = bw.Field.from_values(g, np.exp(-(x**2) / 2).astype(complex))
    xi = g.freqs(0)
    assert np.max(np.abs(f.spectrum - np.exp(-(xi**2) / 2))) < 1e-8


def test_transform_roundtrip_identity():
    g = bw.Grid.make(256, 10.0)
    rng = np.random.default_rng(7)
    f = bw.Field.from_values(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    back = bw.Field.from_spectrum(g, f.spectrum).values
    rel = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
    assert rel < 1e-12


@pytest.mark.parametrize(
    "sizes, half_lengths",
    [((8,), (3.0,)), ((16, 32), (2.0, 5.0)), ((8, 16, 32), (1.5, 2.5, 4.0))],
)
def test_transform_pair_matches_shifted_reference(sizes, half_lengths):
    # the (-1)^k modulation must reproduce the centering shifts it replaces
    g = bw.Grid.make(sizes, half_lengths)
    rng = np.random.default_rng(len(sizes))
    x = rng.standard_normal(sizes) + 1j * rng.standard_normal(sizes)
    x_before = x.copy()
    scale = np.prod([g.spacing(i) / np.sqrt(2 * np.pi) for i in range(g.ndim)])
    spec_ref = np.fft.fftn(np.fft.ifftshift(x)) * scale
    phys_ref = np.fft.fftshift(np.fft.ifftn(x)) / scale
    spec = fields._phys_to_spec(g, x)
    phys = fields._spec_to_phys(g, x)
    assert np.max(np.abs(spec - spec_ref)) <= 1e-13 * np.max(np.abs(spec_ref))
    assert np.max(np.abs(phys - phys_ref)) <= 1e-13 * np.max(np.abs(phys_ref))
    assert np.array_equal(x, x_before)  # neither direction writes its input

    # per-axis transforms in fftn's order: bit-equal to fftn / ifftn and the table
    forward, inverse = g._tables.forward, g._tables.inverse
    assert np.array_equal(spec, np.fft.fftn(x) * forward)
    assert np.array_equal(phys, np.fft.ifftn(x * inverse))
    assert np.array_equal(fields._phys_to_spec(g, x.real), np.fft.fftn(x.real) * forward)

    # the band-limited forward transform is the spectrum with the Nyquist bins zeroed
    band = fields._phys_to_spec(g, x, band_limited=True)
    nyquist = nyquist_mask(g)
    assert np.all(band[nyquist] == 0)
    assert np.array_equal(band[~nyquist], spec[~nyquist])

    # the per-grid tables are computed once and shared read-only
    def tables(grid):
        return grid._tables.forward, grid._tables.inverse, grid._tables.band_limited_forward

    cached, again = tables(g), tables(g)
    assert all(a is b for a, b in zip(cached, again))
    for table in cached:
        assert table.shape == g.sizes and not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * g.ndim] = 0

    # equal grids share the modulation tables and the axes, all read-only,
    # with the values the axes had when they were built on every call
    def shared(grid):
        axes = range(grid.ndim)
        return (grid._tables.forward, grid._tables.inverse, *(grid.coords(i) for i in axes),
                *(grid.freqs(i) for i in axes), *grid.coord_mesh(), *grid.freq_mesh())

    twin = bw.Grid.make(sizes, half_lengths)
    assert twin is not g
    assert all(a is b for a, b in zip(shared(g), shared(twin), strict=True))
    for table in shared(g):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
    coords = [(np.arange(n) - n // 2) * g.spacing(i) for i, n in enumerate(g.sizes)]
    freqs = [2 * np.pi * np.fft.fftfreq(n, d=g.spacing(i)) for i, n in enumerate(g.sizes)]
    for i in range(g.ndim):
        assert np.array_equal(g.coords(i), coords[i]) and np.array_equal(g.freqs(i), freqs[i])
    for mesh, axes in ((g.coord_mesh(), coords), (g.freq_mesh(), freqs)):
        reference = np.meshgrid(*axes, indexing="ij", sparse=True)
        assert all(a.shape == b.shape and np.array_equal(a, b)
                   for a, b in zip(mesh, reference, strict=True))


def _real_dot_reference(a, b):
    """``fields.real_dot`` as it was first written: the einsum it must keep."""
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a).view(np.float64)
    if np.iscomplexobj(b):
        b = np.ascontiguousarray(b).view(np.float64)
    axes = list(range(a.ndim))
    return float(np.einsum(a, axes, b, axes, []))


@pytest.mark.parametrize("shape", [(1024,), (37,), (16, 32), (64, 64), (8, 16, 32), (5, 6, 7)])
def test_real_dot_is_bit_equal_to_its_einsum(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = 1e3 * rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = rng.standard_normal(shape)
    pairs = [
        (z, z), (z, w), (r, r), (r, z.real),
        (z.imag, z.imag), (z.real, w.real),  # strided real views
        (z.T, w.T), (r.T, r.T),  # transposed views
        (z[..., ::2], w[..., ::2]),  # strided complex views
    ]
    for a, b in pairs:
        assert fields.real_dot(a, b) == _real_dot_reference(a, b)
        assert fields.flat_norm(a) == np.sqrt(_real_dot_reference(a, a))


def test_adopted_read_only_arrays_survive_every_operation(
    classical_problem, classical_report, frac2d_problem, frac2d_report, tmp_path
):
    # Field adopts its arrays; read-only inputs make any in-place write raise
    def frozen(a):
        a = np.array(a, dtype=complex)
        a.setflags(write=False)
        return a

    def frozen_field(f):
        return bw.Field(f.grid, values=frozen(f.values), spectrum=frozen(f.spectrum))

    grid = classical_problem.grid
    init = bw.Field.from_spectrum(grid, frozen(bw.gaussian_init(grid).spectrum))
    rep = bw.minimize(classical_problem, init=init)
    assert np.array_equal(rep.Q.values, classical_report.Q.values)

    q = frozen_field(classical_report.Q)
    moved = frozen_field(q.shifted([7 * grid.spacing(0)]))
    back = bw.canonicalize(moved)
    assert np.max(np.abs(back.values - q.values)) < 1e-12 * np.max(np.abs(q.values))
    q2d = frozen_field(frac2d_report.Q)
    for f, prob, axis in ((q, classical_problem, 0), (q2d, frac2d_problem, 1)):
        assert bw.symmetry_report(f, prob, axis=axis).s2_defect < 1e-10
        assert np.allclose(norm_l2(f.shifted([0.5] * f.grid.ndim)), norm_l2(f))
        rearranged = bw.fourier_rearrange(f, "modulus")
        assert np.array_equal(rearranged.spectrum, np.abs(f.spectrum))

    # read_gnf hands Field a read-only array, aligned whatever the header's length
    path = tmp_path / "q.gnf"
    bw.write_gnf(path, q2d)
    read = bw.read_gnf(path)
    assert not read.values.flags.writeable and read.values.flags.aligned
    assert np.array_equal(read.values, q2d.values)
    assert bw.symmetry_report(bw.canonicalize(read), frac2d_problem, axis=1).s2_defect < 1e-10


def test_plancherel_random_fields():
    g = bw.Grid.make((32, 32), 6.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        vals = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        f = bw.Field.from_values(g, vals)
        phys = np.sqrt(np.sum(np.abs(f.values) ** 2) * g.cell_volume())
        spec = np.sqrt(np.sum(np.abs(f.spectrum) ** 2) * g.freq_cell_volume())
        assert abs(phys - spec) <= 1e-10 * phys


def test_norms_of_zero_field(grid_1d):
    f = bw.Field.from_values(grid_1d, np.zeros(grid_1d.sizes[0], dtype=complex))
    assert norm_l2(f) == 0.0
    assert norm_lp(f, 4) == 0.0
    assert norm_lp(f, np.inf) == 0.0


def test_sech_l4_matches_integral_oracle(sech_field):
    # oracle: ||sqrt(2) sech||_4^4 = 4 * integral sech^4 = 16/3
    # (finite range: the integrand is below 1e-60 beyond |x| = 40)
    oracle, err = quad(lambda x: (np.sqrt(2.0) / np.cosh(x)) ** 4, -40.0, 40.0)
    assert err < 1e-7
    assert oracle == pytest.approx(16.0 / 3.0, abs=1e-9)
    assert norm_lp(sech_field, 4) ** 4 == pytest.approx(oracle, rel=1e-10)


def test_sech_max_norm(sech_field):
    assert norm_lp(sech_field, np.inf) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_l4_convolution_theorem_identity(grid_1d):
    # || u ||_4^4 equals the 3-fold spectral autocorrelation at zero
    rng = np.random.default_rng(3)
    xi = grid_1d.freqs(0)
    spec = (rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)) * np.exp(
        -(xi**2) / 8
    )
    f = bw.Field.from_spectrum(grid_1d, spec)
    lhs = norm_lp(f, 4) ** 4
    # F(|u|^4)(0) * (2 pi)^{1/2} with |u|^4 = |u^2|^2 computed spectrally
    sq = bw.Field.from_values(grid_1d, f.values**2)
    rhs = np.sum(np.abs(sq.spectrum) ** 2) * grid_1d.freq_cell_volume()
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_quad_form_dc_field(grid_1d):
    spec = np.zeros(grid_1d.sizes[0], dtype=complex)
    spec[0] = 2.0
    f = bw.Field.from_spectrum(grid_1d, spec)
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 1), 0.0)
    omega = 1.0
    assert quad_form(f, bsym, omega) == pytest.approx(
        omega * norm_l2(f) ** 2, rel=1e-13
    )


def test_quad_form_gaussian_oracle(gauss_field):
    # integral oracles: int |f'|^2 = sqrt(pi)/2, int |f|^2 = sqrt(pi)
    kin, _ = quad(lambda x: (x * np.exp(-(x**2) / 2)) ** 2, -np.inf, np.inf)
    mass, _ = quad(lambda x: np.exp(-(x**2)), -np.inf, np.inf)
    expected = kin + mass
    assert expected == pytest.approx(1.5 * np.sqrt(np.pi), abs=1e-10)
    bsym = bw.BoostedSymbol.make(bw.fractional(1.0, 1), 0.0)
    assert quad_form(gauss_field, bsym, 1.0) == pytest.approx(expected, rel=1e-10)


def test_quad_form_gauge_shift_consistency(gauss_field):
    # <f,(P_v+omega)f> with P=-Laplacian equals the rest form at omega - v^2/4
    # applied to the de-gauged field
    v = 0.5
    bsym_v = bw.BoostedSymbol.make(bw.fractional(1.0, 1), v)
    bsym_0 = bw.BoostedSymbol.make(bw.fractional(1.0, 1), 0.0)
    boosted = galilean_gauge(gauss_field, (v,))
    lhs = quad_form(boosted, bsym_v, 1.0)
    rhs = quad_form(gauss_field, bsym_0, 1.0 - v * v / 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_energy_mass_zero(grid_1d):
    f = bw.Field.from_values(grid_1d, np.zeros(grid_1d.sizes[0], dtype=complex))
    e, m = bw.energy_mass(f, bw.fractional(1.0, 1), 1)
    assert e == 0.0 and m == 0.0


def test_energy_mass_sech_oracle(sech_field):
    # E = 1/2 * 4/3 - 1/4 * 16/3 = -2/3 ; M = 4
    kin, _ = quad(lambda x: 2.0 * (np.tanh(x) / np.cosh(x)) ** 2, -40.0, 40.0)
    assert kin == pytest.approx(4.0 / 3.0, abs=1e-10)
    e, m = bw.energy_mass(sech_field, bw.fractional(1.0, 1), 1)
    assert e == pytest.approx(-2.0 / 3.0, abs=1e-9)
    assert m == pytest.approx(4.0, abs=1e-9)


def test_mass_invariant_under_gauge(sech_field):
    boosted = galilean_gauge(sech_field, (0.7,))
    _, m0 = bw.energy_mass(sech_field, bw.fractional(1.0, 1), 1)
    _, m1 = bw.energy_mass(boosted, bw.fractional(1.0, 1), 1)
    assert m1 == pytest.approx(m0, rel=1e-14)


def test_field_representation_consistency(grid_1d):
    rng = np.random.default_rng(23)
    vals = rng.standard_normal(grid_1d.sizes[0]) + 1j * rng.standard_normal(grid_1d.sizes[0])
    f = bw.Field.from_values(grid_1d, vals)
    spec = f.spectrum  # both representations now current
    again = bw.Field.from_spectrum(grid_1d, spec)
    rel = np.max(np.abs(again.values - f.values)) / np.max(np.abs(f.values))
    assert rel < 1e-12


def test_gnf_roundtrip_bit_exact(tmp_path, grid_1d):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid_1d.sizes[0]) + 1j * rng.standard_normal(grid_1d.sizes[0])
    f = bw.Field.from_values(grid_1d, vals)
    path = tmp_path / "f.gnf"
    bw.write_gnf(path, f)
    g = bw.read_gnf(path)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    # writing the reread field reproduces the file byte for byte
    blob = path.read_bytes()
    bw.write_gnf(path, g)
    assert path.read_bytes() == blob


def test_gnf_rejects_corruption(tmp_path, grid_1d, sech_field):
    path = tmp_path / "f.gnf"
    bw.write_gnf(path, sech_field)
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(bw.GnfFormatError) as err:
        bw.read_gnf(path)
    assert err.value.offset == 0

    bw.write_gnf(path, sech_field)
    truncated = path.read_bytes()[:-8]
    path.write_bytes(truncated)
    with pytest.raises(bw.GnfFormatError) as err:
        bw.read_gnf(path)
    assert err.value.offset is not None


def test_gnf_header_past_the_first_read(tmp_path, sech_field):
    # The reader takes the header from the first 4,096 bytes of the file and reads
    # on when the blank line is not among them.  Header keys it does not use
    # are skipped, so a long one moves the payload past that first read.
    path = tmp_path / "f.gnf"
    bw.write_gnf(path, sech_field)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\n\n", b"\nnote=" + b"x" * 5000 + b"\n\n", 1))
    read = bw.read_gnf(path)
    assert read.values.tobytes() == sech_field.values.tobytes()
    assert read.values.flags.aligned and not read.values.flags.writeable

    no_blank = blob.replace(b"\n\n", b"\n", 1)
    path.write_bytes(no_blank)
    with pytest.raises(bw.GnfFormatError, match="missing blank line") as err:
        bw.read_gnf(path)
    assert err.value.offset == len(no_blank)

    path.write_bytes(blob[:-8])
    with pytest.raises(bw.GnfFormatError, match=f"payload has {16 * 1024 - 8} bytes") as err:
        bw.read_gnf(path)
    assert err.value.offset == blob.index(b"\n\n") + 2


def test_gnf_refuses_a_repeated_header_field(tmp_path, sech_field):
    # as the config reader refuses a repeated key: a second n= line is an
    # error at its own offset, not a silent switch to its value
    path = tmp_path / "f.gnf"
    bw.write_gnf(path, sech_field)
    blob = path.read_bytes()
    assert blob.startswith(b"GNF1\nn=1\n")
    path.write_bytes(b"GNF1\nn=2\n" + blob[len(b"GNF1\n"):])
    with pytest.raises(bw.GnfFormatError, match="duplicate header field 'n'") as err:
        bw.read_gnf(path)
    assert err.value.offset == len(b"GNF1\nn=2\n")
