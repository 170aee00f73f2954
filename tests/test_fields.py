import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    AliasingError,
    ConfigError,
    DitherProtocol,
    GaussianSpec,
    GuardError,
    Mirror,
    Path,
    TiltSet,
    TransverseField,
    TransverseGrid,
    ZeroNormError,
    apply_dove_x,
    apply_tilt,
    centroid,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    field_before_F,
    load_preset,
    make_gaussian,
    parity_x,
    power,
    propagate,
)
from nested_mzi_lab import fields
from nested_mzi_lab.detection import _moments
from nested_mzi_lab.interferometer import _outer_prefix, _reference_prefix, _trace
from conftest import (
    GridMismatchError,
    decompose_parity,
    inner_product,
    momentum_centroid,
    norm,
    random_field,
    with_value,
)


def normalized(grid, amp, k):
    amp = np.asarray(amp, dtype=complex)
    scale = math.sqrt(float(np.sum(np.abs(amp) ** 2) * grid.spacing))
    return TransverseField(grid, amp / scale, k)


#: Each positive real input, by the name its error gives, and a build that sets it to a value.
POSITIVE_INPUTS = {
    "grid half_width": lambda v: TransverseGrid(n=1024, half_width=v),
    "waist w0": lambda v: GaussianSpec(w0=v, wavelength=633e-9),
    "wavelength": lambda v: GaussianSpec(w0=1e-3, wavelength=v),
    "wavenumber k": lambda v: TransverseField(TransverseGrid(n=1024, half_width=1e-2),
                                              np.zeros(1024), v),
    "path_length": lambda v: replace(default_scenario(), path_length=v),
    **{f"z_{m.value}": lambda v, m=m: replace(
        default_scenario(), distances=with_value(default_scenario().distances, m, v, "z"))
       for m in Mirror},
    "sample_rate": lambda v: DitherProtocol(sample_rate=v),
    "duration": lambda v: DitherProtocol(duration=v),
    **{f"freq_{m.value}": lambda v, m=m: DitherProtocol(
        frequencies=with_value(DitherProtocol().frequencies, m, v, "freq"))
       for m in Mirror},
}


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", POSITIVE_INPUTS)
def test_each_positive_input_refuses_what_is_not_positive_and_finite(name, value):
    # A per-mirror table refuses a non-finite entry itself, naming the key the same way.
    shown = re.escape(repr(value))
    with pytest.raises(ConfigError, match=(
        f"^{re.escape(name)} (must be positive and finite, got {shown}|= {shown} is not finite)$"
    )):
        POSITIVE_INPUTS[name](value)


class TestGridAndSpecs:
    def test_grid_spacing_and_symmetry(self, grid):
        assert grid.spacing == pytest.approx(2 * grid.half_width / grid.n)
        assert grid.xs[grid.n // 2] == 0.0
        # every sample's mirror image is on the grid (periodic identification)
        assert np.allclose(grid.xs[1:], -grid.xs[1:][::-1])

    def test_grid_rejects_bad_sample_counts(self):
        with pytest.raises(ConfigError):
            TransverseGrid(n=1000, half_width=1e-2)  # not a power of two
        with pytest.raises(ConfigError):
            TransverseGrid(n=128, half_width=1e-2)  # below the minimum
        with pytest.raises(ConfigError):
            TransverseGrid(n=1024, half_width=0.0)
        with pytest.raises(ConfigError, match="exceeds the bound 65536"):
            TransverseGrid(n=2**40, half_width=1e-2)  # checked before xs is built

    @pytest.mark.parametrize(
        "n", [1024.0, np.float64(1024), "1024", None], ids=["float", "float64", "str", "None"]
    )
    def test_grid_n_must_be_an_integer(self, n):
        with pytest.raises(ConfigError, match="grid n must be an integer"):
            TransverseGrid(n=n, half_width=1e-2)

    def test_integer_names_its_lower_bound(self):
        assert fields._integer(np.int64(-5), "count") == -5  # no bound unless given
        assert fields._integer(1, "count", 1) == 1
        with pytest.raises(ConfigError, match="^count must be >= 1, got 0$"):
            fields._integer(np.int32(0), "count", 1)

    def test_grid_n_is_taken_as_an_int(self):
        grid = TransverseGrid(n=np.int64(1024), half_width=1e-2)
        assert type(grid.n) is int and grid == TransverseGrid(n=1024, half_width=1e-2)

    @pytest.mark.parametrize("half_width", [1e308, 1e300, 5e-324])
    def test_grid_rejects_overflowing_or_vanishing_extent(self, half_width):
        # 1e308: the spacing overflows; 1e300: x**2 does; 5e-324: the spacing is 0.
        with pytest.raises(ConfigError):
            TransverseGrid(n=1024, half_width=half_width)

    def test_field_rejects_other_shapes(self, grid, beam):
        for shape in [(grid.n + 1,), (2, grid.n), (1, grid.n), (0, grid.n), ()]:
            with pytest.raises(ConfigError, match="as \\(n,\\)"):
                TransverseField(grid, np.zeros(shape), beam.k)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan])
    def test_field_rejects_a_wavenumber_not_positive(self, grid, k):
        with pytest.raises(ConfigError, match="wavenumber k must be positive"):
            TransverseField(grid, np.zeros(grid.n), k)

    def test_field_keeps_a_frozen_buffer_it_can_own(self, grid, beam):
        amp = make_gaussian(beam, grid).amplitude.copy()
        amp.flags.writeable = False
        f = TransverseField(grid, amp, beam.k)
        assert f.amplitude is amp

    def test_field_copies_a_writeable_buffer(self, grid, beam):
        amp = make_gaussian(beam, grid).amplitude.copy()
        f = TransverseField(grid, amp, beam.k)
        amp[grid.n // 2] += 1.0
        assert f.amplitude is not amp
        assert not f.amplitude.flags.writeable
        assert f.amplitude[grid.n // 2] == amp[grid.n // 2] - 1.0

    def test_field_copies_a_frozen_view(self, grid, beam):
        # A read-only view can still change through its writeable base.
        base = np.zeros((2, grid.n), dtype=np.complex128)
        view = base[0]
        view.flags.writeable = False
        f = TransverseField(grid, view, beam.k)
        base[0, 0] = 1.0
        assert f.amplitude is not view
        assert f.amplitude[0] == 0.0

    def test_fields_compare_and_hash_by_identity(self, grid, beam):
        # A field keys the photon sampler's table cache by identity, never by value.
        f = make_gaussian(beam, grid)
        g = TransverseField(f.grid, f.amplitude, f.k)
        assert g.amplitude is f.amplitude
        assert f == f and f != g
        assert len({f, g, f}) == 2

    def test_cached_and_returned_buffers_refuse_in_place_writes(self):
        # Caches hand out their arrays uncopied, so a write would reach every later caller.
        scenario = load_preset("fig1c").scenario
        tilts = TiltSet.single(Mirror.E, 5e-7)
        grid, beam = scenario.grid, scenario.beam
        source = make_gaussian(beam, grid)
        buffers = {
            "grid.xs": grid.xs,
            "_transfer_function": fields._transfer_function(grid, beam.k, 0.5),
            "_outer_prefix": _outer_prefix(scenario).amplitude,
            "_reference_prefix": _reference_prefix(scenario).amplitude,
            "_trace": _trace(scenario, (5e-7, 0.0, 0.0), Path.EAF).amplitude,  # E, A, F
            "_moments": _moments(grid, beam, scenario.path_length),
            "make_gaussian": source.amplitude,
            "propagate": propagate(source, 0.5).amplitude,
            "apply_tilt": apply_tilt(source, 1e-6).amplitude,
            "apply_dove_x": apply_dove_x(source).amplitude,
            "detector_field_numeric": detector_field_numeric(scenario, tilts).amplitude,
            "detector_field_analytic": detector_field_analytic(scenario, tilts).amplitude,
            "field_before_F": field_before_F(scenario, tilts).amplitude,
        }
        accepted = []
        for name, buffer in buffers.items():
            try:
                buffer[0] = buffer[0]  # the same values, so an accepted write changes nothing
            except ValueError:
                continue
            accepted.append(name)
        assert accepted == []
        # The moment cache owns its data: no writeable base array lies behind it.
        assert buffers["_moments"].base is None

    def test_producers_hand_over_a_buffer_the_field_keeps(self, monkeypatch):
        # Each producer freezes the fresh array it made, so its field keeps that
        # array uncopied; the last field a producer builds is the one it returns.
        scenario = load_preset("fig1c").scenario
        tilts = TiltSet.single(Mirror.E, 5e-7)
        source = make_gaussian(scenario.beam, scenario.grid)
        kept = []
        post_init = TransverseField.__post_init__

        def spy(field):
            handed = field.amplitude
            post_init(field)
            kept.append(field.amplitude is handed and handed.flags.owndata)

        monkeypatch.setattr(TransverseField, "__post_init__", spy)
        producers = {
            "make_gaussian": lambda: make_gaussian(scenario.beam, scenario.grid),
            "propagate": lambda: propagate(source, 0.5),
            "apply_tilt": lambda: apply_tilt(source, 1e-6),
            "parity_x": lambda: parity_x(source),
            "apply_dove_x": lambda: apply_dove_x(source),
            "_port_sum (detector_field_numeric)": lambda: detector_field_numeric(scenario, tilts),
            "_port_sum (field_before_F)": lambda: field_before_F(scenario, tilts),
        }
        copied = []
        for name, produce in producers.items():
            kept.clear()
            produce()
            if not kept[-1]:
                copied.append(name)
        assert copied == []

    def test_spec_rejects_nonparaxial_waist(self):
        with pytest.raises(ConfigError):
            GaussianSpec(w0=5e-6, wavelength=633e-9)  # k*w0 < 100

    def test_spec_rejects_a_waist_whose_square_underflows(self):
        # z_R = k w0^2 / 2 would be 0, and the closed-form profile divides by it.
        with pytest.raises(ConfigError, match="underflows"):
            GaussianSpec(w0=1e-165, wavelength=1e-167)


class TestMakeGaussian:
    def test_centroid_is_zero(self, grid, beam):
        f = make_gaussian(beam, grid)
        assert abs(centroid(f)) < 1e-15 * beam.w0

    def test_unit_norm(self, grid, beam):
        assert abs(norm(make_gaussian(beam, grid)) - 1.0) < 1e-12

    def test_parity_overlap_is_one(self, grid, beam):
        f = make_gaussian(beam, grid)
        assert inner_product(f, parity_x(f)) == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_narrow(self, beam):
        with pytest.raises(ConfigError):
            make_gaussian(beam, TransverseGrid(n=256, half_width=7.9 * beam.w0))

    def test_grid_too_coarse(self, beam):
        coarse = TransverseGrid(n=256, half_width=32 * 1.01 * beam.w0)  # spacing > w0/4
        with pytest.raises(ConfigError, match="too coarse"):
            make_gaussian(beam, coarse)
        make_gaussian(beam, TransverseGrid(n=256, half_width=32 * beam.w0))  # w0/4 exactly


class TestCentroid:
    def test_shifted_gaussian(self, grid, beam):
        d = 10e-6
        f = normalized(grid, np.exp(-((grid.xs - d) ** 2) / beam.w0**2), beam.k)
        assert centroid(f) == pytest.approx(d, rel=1e-3)

    def test_linear_perturbation_matches_quadrature_oracle(self, grid, beam):
        # Oracle: trapezoid quadrature of the moment integral at 10x resolution,
        # fully independent of the package's midpoint-rule implementation.
        eps = 0.01
        f = normalized(
            grid, np.exp(-(grid.xs**2) / beam.w0**2) * (1 + eps * grid.xs / beam.w0), beam.k
        )
        fine = np.linspace(-grid.half_width, grid.half_width, 10 * grid.n + 1)
        density = np.exp(-2 * fine**2 / beam.w0**2) * (1 + eps * fine / beam.w0) ** 2
        oracle = np.trapezoid(fine * density, fine) / np.trapezoid(density, fine)
        assert oracle == pytest.approx(4.99987500312492e-06, rel=1e-10)  # frozen
        assert centroid(f) == pytest.approx(oracle, rel=1e-9)

    def test_zero_norm_error(self, grid, beam):
        empty = TransverseField(grid, np.zeros(grid.n), beam.k)
        with pytest.raises(ZeroNormError):
            centroid(empty)

    def test_a_zero_field_has_power_zero(self, grid, beam):
        assert power(TransverseField(grid, np.zeros(grid.n), beam.k)) == 0.0

    def test_a_power_past_float64_raises_guard(self, beam):
        # Six samples of 1e150 (1 + i) sum to 1.2e301, finite; times the spacing 2e7 it is not.
        wide = TransverseGrid(n=1024, half_width=1e10)
        amp = np.zeros(wide.n, dtype=complex)
        amp[500:506] = 1e150 + 1e150j
        with pytest.raises(GuardError, match="field power inf overflows float64"):
            power(TransverseField(wide, amp, beam.k))

    def test_a_moment_past_float64_raises_guard(self, beam):
        # The power is 7.8e307, finite, yet x * intensity overflows at x = -9.2e9.
        wide = TransverseGrid(n=256, half_width=1e10)
        amp = np.zeros(wide.n)
        amp[10] = 1e150
        f = TransverseField(wide, amp, beam.k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(power(f))
            with pytest.raises(GuardError, match="centroid is -?inf"):
                centroid(f)


class TestMomentumCentroid:
    def test_untilted_gaussian(self, grid, beam):
        f = make_gaussian(beam, grid)
        assert abs(momentum_centroid(f)) < 1e-9 * beam.k

    def test_tilted_gaussian(self, grid, beam):
        from nested_mzi_lab import apply_tilt

        alpha = 10e-6
        f = apply_tilt(make_gaussian(beam, grid), alpha)
        assert momentum_centroid(f) == pytest.approx(beam.k * alpha, rel=1e-3)

    def test_parity_negates_momentum(self, grid, beam):
        from nested_mzi_lab import apply_tilt

        alpha = 10e-6
        f = apply_tilt(make_gaussian(beam, grid), alpha)
        assert momentum_centroid(parity_x(f)) == pytest.approx(-beam.k * alpha, rel=1e-3)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parity_negates_momentum_for_any_field(self, grid, beam, seed):
        f = random_field(grid, beam, seed)
        assert momentum_centroid(parity_x(f)) == pytest.approx(
            -momentum_centroid(f), abs=1e-9 * beam.k
        )

    def test_zero_norm_error(self, grid, beam):
        with pytest.raises(ZeroNormError):
            momentum_centroid(TransverseField(grid, np.zeros(grid.n), beam.k))


class TestPropagate:
    def test_zero_distance_is_identity(self, grid, beam):
        f = make_gaussian(beam, grid)
        out = propagate(f, 0.0)
        assert np.max(np.abs(out.amplitude - f.amplitude)) < 1e-12

    def test_tilt_walk_off(self, grid, beam):
        from nested_mzi_lab import apply_tilt

        alpha, z = 10e-6, 1.0
        f = propagate(apply_tilt(make_gaussian(beam, grid), alpha), z)
        assert centroid(f) == pytest.approx(z * alpha, rel=5e-3)

    def test_width_matches_gaussian_beam_oracle(self, grid, beam):
        # Oracle: closed-form beam-width law w(z) = w0 sqrt(1 + (z/zR)^2),
        # measured on the field as twice the intensity RMS width.
        z = 0.5 * beam.rayleigh_range
        f = propagate(make_gaussian(beam, grid), z)
        intensity = np.abs(f.amplitude) ** 2
        second = np.sum(grid.xs**2 * intensity) / np.sum(intensity)
        measured = 2.0 * math.sqrt(second)
        oracle = beam.w0 * math.sqrt(1.0 + (z / beam.rayleigh_range) ** 2)
        assert measured == pytest.approx(oracle, rel=1e-3)

    def test_negative_distance_rejected(self, grid, beam):
        with pytest.raises(ConfigError):
            propagate(make_gaussian(beam, grid), -0.1)

    def test_aliasing_guard_trips(self, beam):
        from nested_mzi_lab import apply_tilt

        tight = TransverseGrid(n=256, half_width=8 * beam.w0)
        f = apply_tilt(make_gaussian(beam, tight), 9e-4)
        with pytest.raises(AliasingError):
            propagate(f, 8.0)  # walk-off carries the beam into the guard band

    def test_non_finite_field_raises_guard(self, grid, beam):
        amp = make_gaussian(beam, grid).amplitude.copy()
        amp[grid.n // 2] = np.nan
        with pytest.raises(GuardError, match="not finite"):
            propagate(TransverseField(grid, amp, beam.k), 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_field_trips_at_its_spectrum(self, grid, beam, monkeypatch, value):
        # Refused before the transfer function is even looked up.
        amp = make_gaussian(beam, grid).amplitude.copy()
        amp[grid.n // 2] = value
        monkeypatch.setattr(fields, "_transfer_function", None)
        with pytest.raises(GuardError, match="field is not finite .*spectrum edge (nan|inf)"):
            propagate(TransverseField(grid, amp, beam.k), 0.5)

    @pytest.mark.parametrize("half_width", [1e-9, 16e-3, 1.0, 1e10])
    def test_field_band_slices_match_the_position_mask(self, monkeypatch, half_width):
        # propagate reads the field's guard band as two end slices.  On each side a
        # magnitude that falls away from the centre makes the worst value the band's
        # innermost sample there, so each side's worst is that of the mask
        # |x| > (1 - EDGE_BAND) half_width only if the slices hold the mask's samples.
        worst = {}

        def record(peak, edge, band="edge amplitude"):
            worst[band] = edge

        monkeypatch.setattr(fields, "check_edges", record)
        for n in 2 ** np.arange(8, 17):
            grid = TransverseGrid(n=int(n), half_width=half_width)
            mask = np.abs(grid.xs) > (1.0 - fields.EDGE_BAND) * half_width
            falling = 2.0 - np.abs(np.arange(grid.n) - grid.n // 2) / grid.n
            for side in (grid.xs < 0.0, grid.xs > 0.0):
                amp = np.where(side, falling, 0.0)
                propagate(TransverseField(grid, amp, 1.0), 0.0)
                assert worst["edge amplitude"] == pytest.approx(amp[mask].max(), abs=1e-12)

    def test_check_edges_names_its_band(self):
        fields.check_edges(0.0, 0.0, "spectrum edge")  # a zero peak passes
        fields.check_edges(1.0, 1e-8)
        with pytest.raises(AliasingError, match="^spectrum edge 2e-08 exceeds 1e-08 of peak 1$"):
            fields.check_edges(1.0, 2e-8, "spectrum edge")
        with pytest.raises(AliasingError, match="^edge amplitude 2e-08 exceeds 1e-08 of peak 1$"):
            fields.check_edges(1.0, 2e-8)
        with pytest.raises(GuardError, match="not finite .*spectrum edge inf"):
            fields.check_edges(0.0, math.inf, "spectrum edge")

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_spectrum_in_the_band_edge_raises(self, grid, beam, sign):
        # A ramp at 0.97 of Nyquist puts the spectrum in the middle EDGE_BAND of the FFT
        # order, where it wraps; the positions stay centred, clear of the edge guard.
        ramp = np.exp(1j * sign * 0.97 * math.pi / grid.spacing * grid.xs)
        f = TransverseField(grid, make_gaussian(beam, grid).amplitude * ramp, beam.k)
        with pytest.raises(AliasingError, match="spectrum edge .* exceeds 1e-08 of peak"):
            propagate(f, 0.0)

    def test_zero_field_passes_the_guard(self, grid, beam):
        out = propagate(TransverseField(grid, np.zeros(grid.n), beam.k), 0.5)
        assert not out.amplitude.any()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), z=st.floats(0.0, 3.0))
    def test_unitarity(self, grid, beam, seed, z):
        f = random_field(grid, beam, seed)
        assert abs(norm(propagate(f, z)) - norm(f)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), z1=st.floats(0.0, 2.0), z2=st.floats(0.0, 2.0))
    def test_composition(self, grid, beam, seed, z1, z2):
        f = random_field(grid, beam, seed)
        once = propagate(f, z1 + z2)
        twice = propagate(propagate(f, z1), z2)
        assert norm(TransverseField(grid, once.amplitude - twice.amplitude, beam.k)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), z=st.floats(0.0, 3.0))
    def test_commutes_with_parity(self, grid, beam, seed, z):
        f = random_field(grid, beam, seed)
        a = parity_x(propagate(f, z))
        b = propagate(parity_x(f), z)
        assert norm(TransverseField(grid, a.amplitude - b.amplitude, beam.k)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(1e-8, 1e-6),
        sign=st.sampled_from([-1.0, 1.0]),
        z=st.floats(0.1, 3.0),
    )
    def test_walk_off_in_regime(self, grid, beam, alpha, sign, z):
        from nested_mzi_lab import apply_tilt

        f = propagate(apply_tilt(make_gaussian(beam, grid), sign * alpha), z)
        assert centroid(f) == pytest.approx(sign * alpha * z, rel=5e-3, abs=1e-16)


def full_grid_transfer(grid: TransverseGrid, k: float, z: float) -> np.ndarray:
    """The transfer function exponentiated at every FFT frequency, the reference for its mirror."""
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.n, grid.spacing)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-0.5j * kx * kx * z / k)


def enveloped_field(log_n: int, fill: float, seed: int) -> TransverseField:
    """A random field on a 2**log_n grid whose beam, w0 = half_width / 10, the grid holds."""
    n = 2**log_n
    half_width = 8e-3 * (1.0 - fill) + n * 1e-3 / 8 * fill  # 8 w0 to n w0 / 8 at w0 = 1 mm
    grid = TransverseGrid(n=n, half_width=half_width)
    return random_field(grid, GaussianSpec(w0=half_width / 10, wavelength=633e-9), seed)


class TestHalfGridTransfer:
    @settings(max_examples=60, deadline=None)
    @given(
        log_n=st.integers(8, 13),
        half_width=st.floats(1e-4, 10.0),
        k=st.floats(1e4, 1e8),
        z=st.floats(1e-12, 1e3),
    )
    def test_mirror_is_the_full_grid_bitwise(self, log_n, half_width, k, z):
        grid = TransverseGrid(n=2**log_n, half_width=half_width)
        h = fields._transfer_function.__wrapped__(grid, k, z)
        assert h.tobytes() == full_grid_transfer(grid, k, z).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(log_n=st.integers(8, 13), fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_zero_distance_propagates_bitwise(self, log_n, fill, seed):
        # At z = 0 the full-grid exponent's imaginary part is +0.0 at kx >= 0 and -0.0 at
        # kx < 0, and the mirror copies +0.0: H = 1 + 0j then differs from the full grid only
        # in the sign of zero imaginary parts, and each product with the spectrum is the same.
        f = enveloped_field(log_n, fill, seed)
        h = fields._transfer_function.__wrapped__(f.grid, f.k, 0.0)
        full = full_grid_transfer(f.grid, f.k, 0.0)
        assert h.real.tobytes() == full.real.tobytes()
        assert np.array_equal(h.imag, full.imag)
        expected = np.fft.ifft(np.fft.fft(f.amplitude) * full)
        assert propagate(f, 0.0).amplitude.tobytes() == expected.tobytes()

    def test_a_non_finite_phase_raises_guard(self, grid, beam):
        # kx^2 z / 2k overflows at z = 1e300: the phase is nan, and the edge guard says so.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GuardError, match="field is not finite"):
                propagate(make_gaussian(beam, grid), 1e300)


class TestParity:
    def test_even_field_unchanged(self, grid, beam):
        f = make_gaussian(beam, grid)
        assert np.max(np.abs(parity_x(f).amplitude - f.amplitude)) < 1e-12

    def test_odd_field_negated(self, grid, beam):
        f = normalized(grid, grid.xs * np.exp(-(grid.xs**2) / beam.w0**2), beam.k)
        assert np.max(np.abs(parity_x(f).amplitude + f.amplitude)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_involution(self, grid, beam, seed):
        f = random_field(grid, beam, seed)
        assert np.array_equal(parity_x(parity_x(f)).amplitude, f.amplitude)


class TestDecomposeParity:
    def test_tilted_gaussian_odd_fraction(self, grid, beam):
        # First-order prediction: odd power fraction (k a w0)^2 / 4, verified
        # against direct quadrature of the exact odd part.
        from nested_mzi_lab import apply_tilt

        alpha = 0.9e-6
        kaw = beam.k * alpha * beam.w0
        f = apply_tilt(make_gaussian(beam, grid), alpha)
        _, odd = decompose_parity(f)
        fraction = power(odd) / power(f)
        assert fraction == pytest.approx(kaw**2 / 4.0, rel=5e-2)
        fine = np.linspace(-grid.half_width, grid.half_width, 10 * grid.n + 1)
        g = (2 / (math.pi * beam.w0**2)) ** 0.25 * np.exp(-(fine**2) / beam.w0**2)
        odd_exact = g * 1j * np.sin(beam.k * alpha * fine)
        oracle = np.trapezoid(np.abs(odd_exact) ** 2, fine)
        assert power(odd) == pytest.approx(oracle, rel=1e-6)

    def test_even_input_has_no_odd_part(self, grid, beam):
        _, odd = decompose_parity(make_gaussian(beam, grid))
        assert norm(odd) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reconstruction(self, grid, beam, seed):
        f = random_field(grid, beam, seed)
        even, odd = decompose_parity(f)
        residual = f.amplitude - even.amplitude - odd.amplitude
        assert norm(TransverseField(grid, residual, beam.k)) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parts_are_orthogonal(self, grid, beam, seed):
        even, odd = decompose_parity(random_field(grid, beam, seed))
        assert abs(inner_product(even, odd)) < 1e-12


class TestInnerProduct:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_self_product_is_real_nonnegative(self, grid, beam, seed):
        f = random_field(grid, beam, seed)
        value = inner_product(f, f)
        assert value.imag == pytest.approx(0.0, abs=1e-14)
        assert value.real >= 0.0

    def test_gaussian_orthogonal_to_odd_partner(self, grid, beam):
        g = make_gaussian(beam, grid)
        xg = normalized(grid, grid.xs * g.amplitude, beam.k)
        assert abs(inner_product(g, xg)) < 1e-12

    def test_grid_mismatch(self, grid, beam):
        other = TransverseGrid(n=512, half_width=grid.half_width)
        f = make_gaussian(beam, grid)
        g = make_gaussian(beam, other)
        with pytest.raises(GridMismatchError):
            inner_product(f, g)
