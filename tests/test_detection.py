import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
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
    PRESET_NAMES,
    Dove,
    Mirror,
    MirrorTable,
    PhotonSample,
    TiltSet,
    TransverseField,
    TransverseGrid,
    ZeroNormError,
    centroid,
    default_protocol,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    gaussian_profile,
    load_preset,
    make_gaussian,
    parity_x,
    photon_dither_experiment,
    power,
    run_dither,
    sample_photons,
    spectrum,
    split_signal,
)
from conftest import FAST_FREQS, random_field, tilts_at, with_value
from nested_mzi_lab import detection
from nested_mzi_lab.elements import path_elements, port_amplitudes
from nested_mzi_lab.detection import MAX_DITHER_WORK, MAX_PHOTONS_PER_SAMPLE
from nested_mzi_lab.fields import MAX_SAMPLES
from nested_mzi_lab.interferometer import SMALL_ANGLE_KAW, WALKOFF_FRACTION, _fold_paths


def shifted_gaussian(grid, beam, d):
    amp = np.exp(-((grid.xs - d) ** 2) / beam.w0**2).astype(complex)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * grid.spacing))
    return TransverseField(grid, amp, beam.k)


def pixel_draw(f, count, seed):
    """The cell of each photon and the one-shot positions sample_photons draws in chunks.

    The cells are the grid's, each repeated by its count from one multinomial of the
    intensity shares; each position is its cell's low edge plus spacing x one uniform.
    """
    weights = f.amplitude.real**2 + f.amplitude.imag**2
    rng = np.random.default_rng(seed)
    cells = np.repeat(np.arange(f.grid.n), rng.multinomial(count, weights / np.sum(weights)))
    low = f.grid.xs[cells] - 0.5 * f.grid.spacing
    return cells, low + f.grid.spacing * rng.random(count)


def detector_waist(scenario):
    """Closed-form beam width at the detector plane."""
    beam = scenario.beam
    return beam.w0 * math.sqrt(1.0 + (scenario.path_length / beam.rayleigh_range) ** 2)


class TestProtocolValidation:
    def test_default_is_valid(self):
        DitherProtocol()

    def test_non_integer_cycles_rejected(self, fast_protocol):
        freqs = with_value(fast_protocol.frequencies, Mirror.A, 101.5)
        with pytest.raises(ConfigError):
            replace(fast_protocol, frequencies=freqs)

    def test_duplicate_frequencies_rejected(self, fast_protocol):
        freqs = fast_protocol.frequencies
        freqs = with_value(freqs, Mirror.A, freqs[Mirror.B])
        with pytest.raises(ConfigError):
            replace(fast_protocol, frequencies=freqs)

    def test_sample_rate_bound(self, fast_protocol):
        with pytest.raises(ConfigError):
            replace(fast_protocol, sample_rate=1600.0)  # not > 4 * 440 Hz

    def test_harmonic_frequencies_rejected(self, fast_protocol):
        freqs = with_value(fast_protocol.frequencies, Mirror.F, 320.0)  # 2 x 160 Hz
        with pytest.raises(ConfigError):
            replace(fast_protocol, frequencies=freqs)

    def test_zero_cycle_frequency_rejected(self, fast_protocol):
        # 1e-320 Hz rounds to 0 cycles; the harmonic test would then divide by it.
        freqs = with_value(fast_protocol.frequencies, Mirror.A, 1e-320)
        with pytest.raises(ConfigError, match="freq_A"):
            replace(fast_protocol, frequencies=freqs)

    def test_negative_amplitude_rejected(self, fast_protocol):
        amps = with_value(fast_protocol.amplitudes, Mirror.C, -1e-6)
        with pytest.raises(ConfigError):
            replace(fast_protocol, amplitudes=amps)

    def test_amplitudes_are_a_tilt_set_checked_at_construction(self, fast_protocol):
        assert type(fast_protocol.amplitudes) is TiltSet
        amps = MirrorTable((2e-3, *tuple(fast_protocol.amplitudes)[1:]))
        with pytest.raises(ConfigError, match="amp_A = 0.002 rad is outside the paraxial guard"):
            replace(fast_protocol, amplitudes=amps)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"sample_rate": 1e300, "duration": 1e300}, "sample_rate * duration = inf"),
            ({"sample_rate": 4000.5}, "sample_rate * duration = 1000.125"),
            ({"frequencies": MirrorTable((101.5, *FAST_FREQS[1:]))}, "freq_A * duration = 25.375"),
        ],
        ids=["overflow", "fraction", "cycles"],
    )
    def test_counts_must_be_whole_numbers(self, fast_protocol, changes, message):
        with pytest.raises(ConfigError, match=re.escape(f"{message} is not a whole number >= ")):
            replace(fast_protocol, **changes)

    def test_counts_within_1e_9_of_an_integer_are_whole(self, fast_protocol):
        protocol = replace(fast_protocol, sample_rate=4000.000000002)  # 1000.0000000005 samples
        assert protocol.sample_count == 1000


class TestSplitSignal:
    def test_symmetric_field(self, grid, beam):
        assert abs(split_signal(make_gaussian(beam, grid))) < 1e-12

    def test_small_shift_matches_erf_oracle(self, grid, beam):
        for d in (5e-6, 2e-5, 1e-4):
            got = split_signal(shifted_gaussian(grid, beam, d))
            assert got == pytest.approx(math.erf(math.sqrt(2.0) * d / beam.w0), rel=5e-3)

    def test_fully_displaced_field(self, grid, beam):
        assert split_signal(shifted_gaussian(grid, beam, 10 * beam.w0)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_zero_power(self, grid, beam):
        with pytest.raises(ZeroNormError):
            split_signal(TransverseField(grid, np.zeros(grid.n), beam.k))

    @pytest.mark.parametrize("observable", [split_signal, centroid, power])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e200])
    def test_a_non_finite_field_raises_guard(self, grid, beam, observable, value):
        # 1e200 is finite, but its square is not: the guard reports it, with no numpy warning.
        amp = make_gaussian(beam, grid).amplitude.copy()
        amp[grid.n // 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GuardError, match="field is not finite"):
                observable(TransverseField(grid, amp, beam.k))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_antisymmetric_under_parity(self, grid, beam, seed):
        f = random_field(grid, beam, seed)
        assert split_signal(parity_x(f)) == pytest.approx(-split_signal(f), abs=1e-12)


class TestRunDither:
    def test_quiet_mirrors_give_zero_series(self, fast_protocol):
        protocol = replace(fast_protocol, amplitudes=MirrorTable())
        series = run_dither(default_scenario(), protocol)
        assert np.max(np.abs(series)) < 1e-14

    def test_e_only_silent_without_dove(self, fast_protocol):
        amp_e = fast_protocol.amplitudes[Mirror.E]
        protocol = replace(fast_protocol, amplitudes=MirrorTable.single(Mirror.E, amp_e))
        quiet = run_dither(default_scenario(), protocol)
        loud = run_dither(default_scenario(dove=Dove.BEFORE), protocol)
        assert np.max(np.abs(quiet)) < 1e-4 * np.max(np.abs(loud))

    def test_a_only_series_is_calibrated_sinusoid(self, fast_protocol):
        # First-order prediction: split amplitude erf(sqrt(2) z_A A_A / w) at f_A.
        amp_a = fast_protocol.amplitudes[Mirror.A]
        protocol = replace(fast_protocol, amplitudes=MirrorTable.single(Mirror.A, amp_a))
        scenario = default_scenario()
        series = run_dither(scenario, protocol)
        report = spectrum(series, protocol)
        predicted = math.erf(
            math.sqrt(2.0)
            * scenario.distances[Mirror.A]
            * protocol.amplitudes[Mirror.A]
            / detector_waist(scenario)
        )
        assert report.magnitude(Mirror.A) == pytest.approx(predicted, rel=2e-2)


class TestSpectrum:
    def test_zero_series(self, fast_protocol):
        report = spectrum(np.zeros(fast_protocol.sample_count), fast_protocol)
        assert all(report.magnitude(m) == 0.0 for m in Mirror)
        assert report.noise_floor == np.finfo(np.float64).eps

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_no_mirror_moving_leaves_no_trace(self, fast_protocol, preset_name):
        # The series is rounding residue; no peak may stand out of it.
        protocol = replace(fast_protocol, amplitudes=MirrorTable())
        report = spectrum(run_dither(load_preset(preset_name).scenario, protocol), protocol)
        assert report.peak_mirrors() == set()

    def test_length_mismatch(self, fast_protocol):
        with pytest.raises(ConfigError):
            spectrum(np.zeros(17), fast_protocol)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_series_raises_guard(self, fast_protocol, value):
        series = np.zeros(fast_protocol.sample_count)
        series[3] = value
        with pytest.raises(GuardError, match="dither series is not finite"):
            spectrum(series, fast_protocol)

    def test_pure_tone_amplitude_calibration(self, fast_protocol):
        t = fast_protocol.times()
        series = 0.25 * np.sin(2 * math.pi * fast_protocol.frequencies[Mirror.C] * t)
        report = spectrum(series, fast_protocol)
        assert report.magnitude(Mirror.C) == pytest.approx(0.25, rel=1e-12)

    def test_no_dove_peak_pattern_and_ratios(self, fast_protocol):
        protocol = replace(
            fast_protocol, amplitudes=MirrorTable((1e-6, 0.8e-6, 0.6e-6, 1e-6, 1e-6))
        )
        scenario = default_scenario()
        report = spectrum(run_dither(scenario, protocol), protocol)
        assert report.peak_mirrors() == {Mirror.A, Mirror.B, Mirror.C}
        expected = {
            m: scenario.distances[m] * protocol.amplitudes[m]
            for m in (Mirror.A, Mirror.B, Mirror.C)
        }
        base = report.magnitude(Mirror.A) / expected[Mirror.A]
        for mirror in (Mirror.B, Mirror.C):
            assert report.magnitude(mirror) == pytest.approx(
                base * expected[mirror], rel=2e-2
            )
        top = max(report.magnitude(m) for m in Mirror)
        assert report.magnitude(Mirror.E) < 1e-3 * top
        assert report.magnitude(Mirror.F) < 1e-3 * top

    def test_dove_adds_e_peak_with_weight_two(self, fast_protocol):
        scenario = default_scenario(dove=Dove.BEFORE)
        report = spectrum(run_dither(scenario, fast_protocol), fast_protocol)
        assert report.peak_mirrors() == {Mirror.A, Mirror.B, Mirror.C, Mirror.E}
        z, amps = scenario.distances, fast_protocol.amplitudes
        expected_ratio = 2.0 * z[Mirror.E] * amps[Mirror.E] / (z[Mirror.A] * amps[Mirror.A])
        ratio = report.magnitude(Mirror.E) / report.magnitude(Mirror.A)
        assert ratio == pytest.approx(expected_ratio, rel=2e-2)

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_amplitudes_match_the_longdouble_projection(self, preset_name):
        # The lock-in projection (2/N) sum_n s_n exp(-2 pi i b n / N), in extended
        # precision with the phase reduced exactly to 2 pi (b n mod N) / N.
        protocol = default_protocol()
        series = run_dither(load_preset(preset_name).scenario, protocol)
        report = spectrum(series, protocol)
        count, s = protocol.sample_count, series.astype(np.longdouble)
        n = np.arange(count)
        oracle = {}
        for mirror, freq in protocol.frequencies.items():
            turns = (round(freq * protocol.duration) * n % count).astype(np.longdouble) / count
            phase = 8 * np.arctan(np.longdouble(1)) * turns
            oracle[mirror] = 2 * np.sum(s * (np.cos(phase) - 1j * np.sin(phase))) / count
        top = max(abs(a) for a in oracle.values())
        for mirror in Mirror:
            assert abs(report.amplitudes[mirror] - oracle[mirror]) <= 1e-15 * top

    def test_doubling_amplitudes_doubles_peaks(self, fast_protocol):
        small = replace(fast_protocol, amplitudes=MirrorTable((0.4e-6,) * 5))
        large = replace(fast_protocol, amplitudes=MirrorTable((0.8e-6,) * 5))
        scenario = default_scenario(dove=Dove.BEFORE)
        rep_small = spectrum(run_dither(scenario, small), small)
        rep_large = spectrum(run_dither(scenario, large), large)
        for mirror in (Mirror.A, Mirror.B, Mirror.C, Mirror.E):
            assert rep_large.magnitude(mirror) == pytest.approx(
                2.0 * rep_small.magnitude(mirror), rel=2e-2
            )


class TestSamplePhotons:
    def test_symmetric_sample_mean(self, grid, beam):
        f = make_gaussian(beam, grid)
        n = 1_000_000
        sample = sample_photons(f, n, seed=11)
        assert abs(sample.positions.mean()) < 4.0 * (beam.w0 / math.sqrt(2.0)) / math.sqrt(n)

    def test_mean_tracks_centroid_oracle(self, grid, beam):
        # detector field of the prisms-in scenario at a dither snapshot
        from nested_mzi_lab import detector_field_numeric

        scenario = default_scenario(dove=Dove.BEFORE)
        f = detector_field_numeric(scenario, TiltSet.single(Mirror.E, 1e-6))
        n = 1_000_000
        sample = sample_photons(f, n, seed=12)
        stderr = sample.positions.std(ddof=1) / math.sqrt(n)
        assert abs(sample.positions.mean() - centroid(f)) < 4.0 * stderr

    def test_same_seed_reproduces(self, grid, beam):
        f = make_gaussian(beam, grid)
        a = sample_photons(f, 1000, seed=3)
        b = sample_photons(f, 1000, seed=3)
        assert np.array_equal(a.positions, b.positions)

    def test_positions_stay_on_grid(self, grid, beam):
        sample = sample_photons(make_gaussian(beam, grid), 10_000, seed=4)
        bound = grid.half_width + 0.5 * grid.spacing
        assert np.all(np.abs(sample.positions) <= bound)

    def test_count_guard(self, grid, beam):
        with pytest.raises(ConfigError):
            sample_photons(make_gaussian(beam, grid), 0, seed=1)

    @pytest.mark.parametrize("count", [2**62, 2**64], ids=["2**62", "2**64"])
    def test_count_past_numpy_arrays_refused_before_drawing(self, grid, beam, count, monkeypatch):
        # numpy raised ValueError ("array is too big") at 2**62 and OverflowError at 2**64.
        monkeypatch.setattr(np.random, "default_rng", None)  # the draw never starts
        with pytest.raises(ConfigError, match=f"photon count must be <= {sys.maxsize // 8}"):
            sample_photons(make_gaussian(beam, grid), count, seed=1)

    def test_count_numpy_can_describe_is_not_refused(self, grid, beam):
        # 2**59 doubles (4 EiB) is a float64 array numpy describes but cannot allocate.
        with pytest.raises(MemoryError):
            sample_photons(make_gaussian(beam, grid), 2**59, seed=1)

    def test_negative_seed(self, grid, beam):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            sample_photons(make_gaussian(beam, grid), 10, seed=-1)

    def test_integer_likes_are_taken_as_ints(self, grid, beam):
        f = make_gaussian(beam, grid)
        sample = sample_photons(f, np.int64(10), seed=np.uint64(3))
        assert type(sample.count) is int and type(sample.seed) is int
        assert (sample.count, sample.seed) == (10, 3)
        assert sample.positions.tobytes() == sample_photons(f, 10, 3).positions.tobytes()

    @pytest.mark.parametrize("count, seed, name", [
        (10.0, 1, "photon count"), ("10", 1, "photon count"), (np.float64(10), 1, "photon count"),
        (10, 1.5, "seed"), (10, None, "seed"), (10, np.float64(2), "seed"),
    ])
    def test_non_integers_are_config_errors(self, grid, beam, count, seed, name):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            sample_photons(make_gaussian(beam, grid), count, seed)

    def test_integer_likes_keep_the_range_messages(self, grid, beam):
        f = make_gaussian(beam, grid)
        with pytest.raises(ConfigError, match="photon count must be >= 1, got 0"):
            sample_photons(f, np.int32(0), seed=1)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
            sample_photons(f, 10, seed=np.int64(-2))

    def test_standard_error_scaling(self, grid, beam):
        # SE of the sample mean must fall as 1/sqrt(N) within a factor 1.5.
        f = make_gaussian(beam, grid)
        reps = 30

        def se(n):
            means = [
                sample_photons(f, n, seed=100 + r).positions.mean() for r in range(reps)
            ]
            return np.std(means, ddof=1)

        s4, s5 = se(10_000), se(100_000)
        ratio = s4 / s5
        assert math.sqrt(10.0) / 1.5 <= ratio <= math.sqrt(10.0) * 1.5

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_intensity_refused(self, grid, beam, value):
        amp = make_gaussian(beam, grid).amplitude.copy()
        amp[grid.n // 2] = value
        with pytest.raises(GuardError, match="field is not finite"):
            sample_photons(TransverseField(grid, amp, beam.k), 10, seed=1)


CHUNK = detection._PHOTON_CHUNK


class TestPixelCounts:
    """A draw is one multinomial of pixel counts, then a uniform place within each pixel."""

    @pytest.mark.parametrize("preset_name", [*PRESET_NAMES, "zero-tails"])
    def test_each_photon_lands_in_its_multinomial_cell(self, grid, beam, preset_name):
        if preset_name == "zero-tails":  # no intensity past 3 w0: cells no photon may land in
            amp = random_field(grid, beam, 3).amplitude.copy()
            amp[np.abs(grid.xs) > 3.0 * beam.w0] = 0.0
            f = TransverseField(grid, amp, beam.k)
        else:
            preset = load_preset(preset_name)
            f = detector_field_numeric(preset.scenario, preset.tilts)
        dx, dark = f.grid.spacing, f.amplitude == 0.0
        for seed in (0, 7, 2**63 - 1):
            for count in (1, 1000, 100_003):
                cells, _ = pixel_draw(f, count, seed)
                low = f.grid.xs[cells] - 0.5 * dx
                got = sample_photons(f, count, seed).positions
                assert np.all((low <= got) & (got <= low + dx)), (seed, count)
                assert not dark[cells].any()

    def test_chunks_equal_the_one_shot_draw_bitwise(self, grid, beam):
        f = random_field(grid, beam, 9)
        for count in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7):
            for seed in (0, 5):
                _, expected = pixel_draw(f, count, seed)
                got = sample_photons(f, count, seed).positions
                assert got.tobytes() == expected.tobytes(), (count, seed)

    @pytest.mark.parametrize("n", [default_scenario().grid.n, MAX_SAMPLES])
    def test_reproducible_per_seed(self, beam, n):
        grid = TransverseGrid(n=n, half_width=default_scenario().grid.half_width)
        f = random_field(grid, beam, 5)
        for count in (10, CHUNK + 3):
            first, again = (sample_photons(f, count, seed=3).positions for _ in range(2))
            assert first.tobytes() == again.tobytes()
            assert first.tobytes() != sample_photons(f, count, seed=4).positions.tobytes()

    def test_memory_in_flight_is_the_output_and_one_buffer(self, grid, beam):
        f = random_field(grid, beam, 10)
        count = 2**20
        sample_photons(f, 10, seed=0)  # grid.xs
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample = sample_photons(f, count, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sample.positions.nbytes == 8 * count
        assert peak <= 8 * count + 2**20

    def test_a_draw_is_not_retained(self, grid, beam):
        f = random_field(grid, beam, 2)
        sample = sample_photons(f, 2 * CHUNK, seed=5)
        positions, amplitude = weakref.ref(sample.positions), weakref.ref(f.amplitude)
        del sample, f
        assert positions() is None and amplitude() is None

    def test_a_draw_starts_no_thread(self):
        # In a fresh process, since the test runner's own imports may start threads.
        src = os.path.dirname(os.path.dirname(detection.__file__))
        script = (
            "import sys, threading, nested_mzi_lab.cli\n"
            "from nested_mzi_lab import default_beam, default_grid, make_gaussian\n"
            "from nested_mzi_lab import sample_photons\n"
            "sample_photons(make_gaussian(default_beam(), default_grid()), 2**18, 1)\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1 False"

    @pytest.mark.parametrize("seed", range(6))
    def test_no_photon_lands_in_a_dark_pixel(self, grid, beam, seed):
        # Dark runs of random length between lit cells, at one or both ends of the grid too.
        rng = np.random.default_rng(seed)
        lit = rng.random(grid.n) < 0.3
        lit[0], lit[-1] = seed % 2 == 0, seed % 3 == 0
        amp = np.where(lit, rng.uniform(0.5, 1.5, grid.n), 0.0) + 0j
        f, count = TransverseField(grid, amp, beam.k), 50_000
        cells, _ = pixel_draw(f, count, seed)
        low = grid.xs[cells] - 0.5 * grid.spacing
        got = sample_photons(f, count, seed).positions
        assert np.all((low <= got) & (got <= low + grid.spacing))
        assert lit[cells].all() and np.all(np.bincount(cells, minlength=grid.n)[lit] > 0)

    @pytest.mark.parametrize("where", ["first", "second", "middle", "last"])
    def test_a_single_lit_pixel_takes_every_photon(self, grid, beam, where):
        j = {"first": 0, "second": 1, "middle": grid.n // 2, "last": grid.n - 1}[where]
        amp = np.zeros(grid.n, dtype=complex)
        amp[j] = 1.0
        low, dx = grid.xs[j] - 0.5 * grid.spacing, grid.spacing
        got = sample_photons(TransverseField(grid, amp, beam.k), 10_000, seed=j).positions
        assert np.all((low <= got) & (got <= low + dx))
        # 10^4 uniforms all stay 1% of dx away from an edge with probability e^-100.
        assert got.min() - low < 0.01 * dx and low + dx - got.max() < 0.01 * dx

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_places_within_the_pixels_are_uniform(self, preset_name):
        preset = load_preset(preset_name)
        f = detector_field_numeric(preset.scenario, preset.tilts)
        count, dx = 2 * CHUNK + 11, f.grid.spacing  # a partial last chunk
        cells, _ = pixel_draw(f, count, seed=21)
        places = np.sort((sample_photons(f, count, 21).positions - f.grid.xs[cells]) / dx + 0.5)
        ranks = np.arange(count + 1) / count
        distance = max(np.max(ranks[1:] - places), np.max(places - ranks[:-1]))
        assert distance < 1.95 / math.sqrt(count)  # Kolmogorov-Smirnov at the 0.1% level

    @pytest.mark.parametrize("shift", [0.0, 0.5, 1.0])
    def test_pixel_counts_follow_the_intensity_shares(self, grid, beam, shift):
        f, count, width = shifted_gaussian(grid, beam, shift * beam.w0), 10**6, 4
        intensity = np.abs(f.amplitude) ** 2
        expected = count * np.add.reduceat(intensity, range(0, grid.n, width)) / intensity.sum()
        edges = grid.xs[0] - 0.5 * grid.spacing + grid.spacing * np.arange(0, grid.n + 1, width)
        observed, _ = np.histogram(sample_photons(f, count, seed=31).positions, edges)
        kept = expected > 20.0
        chi2 = float(np.sum((observed[kept] - expected[kept]) ** 2 / expected[kept]))
        dof = int(kept.sum()) - 1
        assert dof > 20 and chi2 < dof + 5.0 * math.sqrt(2.0 * dof)

    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
    def test_moments_on_a_coarse_grid(self, beam, offset):
        # dx = w0 / 2: the spread within a pixel adds dx^2 / 12, 8% of the variance.
        grid = TransverseGrid(n=256, half_width=64.0 * beam.w0)
        f, n = shifted_gaussian(grid, beam, offset * grid.spacing), 10**6
        p = np.abs(f.amplitude) ** 2 / np.sum(np.abs(f.amplitude) ** 2)
        mean = float(np.sum(p * grid.xs))
        variance = float(np.sum(p * (grid.xs - mean) ** 2)) + grid.spacing**2 / 12.0
        got = sample_photons(f, n, seed=41).positions
        assert abs(got.mean() - mean) < 4.0 * math.sqrt(variance / n)
        assert abs(got.var() - variance) < 4.0 * variance * math.sqrt(2.0 / n)

    def test_alternating_fields_equal_the_pixel_draw(self, grid, beam):
        fields = [random_field(grid, beam, s) for s in (11, 12)]
        for seed in range(4):
            for f in fields:
                assert (sample_photons(f, 1000, seed).positions.tobytes()
                        == pixel_draw(f, 1000, seed)[1].tobytes()), seed

    def test_a_twice_as_wide_grid_draws_twice_the_positions(self, grid, beam):
        f = random_field(grid, beam, 4)
        wide = TransverseGrid(n=grid.n, half_width=2.0 * grid.half_width)
        g = TransverseField(wide, f.amplitude, beam.k)
        assert g.amplitude is f.amplitude
        a, b = (sample_photons(h, CHUNK + 5, seed=6).positions for h in (f, g))
        assert b.tobytes() == (2.0 * a).tobytes()

    def test_concurrent_draws_equal_serial_draws(self, grid, beam):
        jobs = [(random_field(grid, beam, s), seed) for s in (1, 2) for seed in range(4)]
        expected = [sample_photons(f, 3 * CHUNK, seed).positions.tobytes() for f, seed in jobs]
        got = [b""] * len(jobs)

        def draw(i):
            got[i] = sample_photons(jobs[i][0], 3 * CHUNK, jobs[i][1]).positions.tobytes()

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert got == expected

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_a_refused_field_raises_on_every_call(self, grid, beam, value):
        amp = make_gaussian(beam, grid).amplitude * (value != 0.0)
        amp[grid.n // 2] = value
        f = TransverseField(grid, amp, beam.k)
        error, message = (ZeroNormError, "total power") if value == 0.0 else (
            GuardError, "field is not finite")
        for _ in range(2):
            with pytest.raises(error, match=message):
                sample_photons(f, 10, seed=1)

    def test_a_small_draw_on_the_largest_grid_equals_the_pixel_draw(self, beam):
        grid = TransverseGrid(n=MAX_SAMPLES, half_width=default_scenario().grid.half_width)
        f = random_field(grid, beam, 8)
        for count in (1, 10):
            for seed in (0, 9):
                assert (sample_photons(f, count, seed).positions.tobytes()
                        == pixel_draw(f, count, seed)[1].tobytes()), (count, seed)


class TestPhotonSampleBuffer:
    def test_keeps_a_frozen_buffer_it_can_own(self):
        pos = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        pos.flags.writeable = False
        assert PhotonSample(pos, seed=1, count=5).positions is pos

    def test_copies_a_writeable_buffer(self):
        pos = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        sample = PhotonSample(pos, seed=1, count=5)
        pos[0] = 7.0
        assert sample.positions is not pos
        assert not sample.positions.flags.writeable
        assert sample.positions[0] == -1.0

    def test_copies_a_frozen_view(self):
        # A read-only view can still change through its writeable base.
        base = np.zeros((2, 5))
        view = base[0]
        view.flags.writeable = False
        sample = PhotonSample(view, seed=1, count=5)
        base[0, 0] = 1.0
        assert sample.positions is not view
        assert sample.positions[0] == 0.0

    @pytest.mark.parametrize("positions, count", [(np.zeros(4), 5), (np.zeros((1, 5)), 5),
                                                  (np.zeros(0), 0)])
    def test_refuses_positions_that_do_not_match_the_count(self, positions, count):
        with pytest.raises(ConfigError, match="1-D array of length count >= 1"):
            PhotonSample(positions, seed=1, count=count)

    def test_drawn_positions_refuse_in_place_writes(self, grid, beam):
        positions = sample_photons(make_gaussian(beam, grid), 100, seed=2).positions
        assert positions.flags.owndata
        with pytest.raises(ValueError):
            positions[0] = positions[0]


class TestPhotonDitherExperiment:
    def test_dove_trace_visible_at_modest_counts(self, fast_protocol):
        scenario = default_scenario(dove=Dove.BEFORE)
        report = photon_dither_experiment(scenario, fast_protocol, 100_000, seed=7)
        assert report.magnitude(Mirror.E) > 5.0 * report.noise_floor

    def test_no_dove_leaves_e_in_the_noise(self, fast_protocol):
        report = photon_dither_experiment(default_scenario(), fast_protocol, 100_000, seed=7)
        assert report.magnitude(Mirror.E) < 2.0 * report.noise_floor

    def test_converges_to_deterministic_spectrum(self, fast_protocol):
        scenario = default_scenario(dove=Dove.BEFORE)
        deterministic = spectrum(run_dither(scenario, fast_protocol), fast_protocol)
        empirical = photon_dither_experiment(scenario, fast_protocol, 10_000_000, seed=21)
        top = max(deterministic.magnitude(m) for m in Mirror)
        for mirror in Mirror:
            assert abs(
                empirical.amplitudes[mirror] - deterministic.amplitudes[mirror]
            ) <= 0.01 * top

    def test_counts_come_from_one_binomial_draw(self, fast_protocol):
        scenario = default_scenario(dove=Dove.BEFORE)
        p_right = np.clip(0.5 * (1.0 + run_dither(scenario, fast_protocol)), 0.0, 1.0)
        counts = np.random.default_rng(7).binomial(1000, p_right)
        expected = spectrum(2.0 * counts / 1000 - 1.0, fast_protocol)
        assert photon_dither_experiment(scenario, fast_protocol, 1000, seed=7) == expected

    def test_the_largest_count_gives_a_finite_report(self, fast_protocol):
        report = photon_dither_experiment(
            default_scenario(), fast_protocol, MAX_PHOTONS_PER_SAMPLE, seed=3
        )
        assert all(math.isfinite(abs(a)) for a in report.amplitudes.values())
        assert math.isfinite(report.noise_floor)

    def test_count_guard(self, fast_protocol):
        with pytest.raises(ConfigError):
            photon_dither_experiment(default_scenario(), fast_protocol, 0, seed=1)

    @pytest.mark.parametrize(
        "photons, seed, name", [(10.5, 1, "photons_per_sample"), (10, 1.5, "seed")]
    )
    def test_non_integers_are_config_errors(self, fast_protocol, photons, seed, name):
        # binomial would draw 10 of 10.5 photons; default_rng would raise TypeError on 1.5
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got"):
            photon_dither_experiment(default_scenario(), fast_protocol, photons, seed)

    @pytest.mark.parametrize(
        "photons, seed", [(10, -1), (MAX_PHOTONS_PER_SAMPLE + 1, 1)], ids=["seed", "count"]
    )
    def test_refused_before_the_dither_run(self, monkeypatch, fast_protocol, photons, seed):
        def no_dither(scenario, protocol):
            raise AssertionError("run_dither reached")

        monkeypatch.setattr(detection, "run_dither", no_dither)
        with pytest.raises(ConfigError):
            photon_dither_experiment(default_scenario(), fast_protocol, photons, seed)


class TestFoldDither:
    # 1001 samples: in chunks of 100 samples, the last chunk is a partial one.
    ODD = DitherProtocol(frequencies=MirrorTable(FAST_FREQS), sample_rate=4004.0, duration=0.25)

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_matches_the_per_sample_numeric_loop(self, preset_name):
        scenario = load_preset(preset_name).scenario
        protocol = self.ODD
        assert protocol.sample_count == 1001
        loop = np.array([
            split_signal(detector_field_numeric(scenario, tilts_at(protocol, t)))
            for t in protocol.times()
        ])
        series = run_dither(scenario, protocol)
        assert np.abs(series - loop).max() <= 1e-12 * np.abs(loop).max()

    @pytest.mark.parametrize(
        "path_length, error", [(16.5, None), (17.0, AliasingError), (20.0, AliasingError)]
    )
    def test_edge_guard_agrees_with_the_numeric_loop(self, fast_protocol, path_length, error):
        scenario = replace(load_preset("fig1c").scenario, path_length=path_length)

        def loop(engine):
            for t in fast_protocol.times():
                engine(scenario, tilts_at(fast_protocol, t))

        for run in (
            lambda: run_dither(scenario, fast_protocol),
            lambda: loop(detector_field_numeric),
            lambda: loop(detector_field_analytic),
        ):
            if error is None:
                run()
            else:
                with pytest.raises(error):
                    run()

    def test_tilt_columns_equal_tilts_at(self, fast_protocol):
        times = fast_protocol.times()[:50]
        columns = fast_protocol.tilts(times)
        for r, t in enumerate(times):
            assert tuple(columns[m][r] for m in Mirror) == tilts_at(fast_protocol, t)

    def test_split_weights_match_split_signal(self, grid, beam):
        # The right-minus-left weights that _moments folds into its first column.
        weights = np.sign(grid.xs)
        weights[0] = 0.0
        for seed in range(4):
            f = random_field(grid, beam, seed)
            intensity = np.abs(f.amplitude) ** 2
            expected = np.sum(weights * intensity) / np.sum(intensity)
            assert split_signal(f) == pytest.approx(expected, rel=1e-13, abs=1e-16)

    def test_split_signal_refuses_zero_power(self, grid, beam):
        with pytest.raises(ZeroNormError):
            split_signal(TransverseField(grid, np.zeros(grid.n), beam.k))

    def test_work_bound_refused_before_allocation(self):
        scenario = default_scenario()
        huge = DitherProtocol(duration=1e9)
        assert huge.sample_count * scenario.grid.n > MAX_DITHER_WORK
        with pytest.raises(ConfigError, match="sample_count 10000000000000 x grid_n 1024"):
            run_dither(scenario, huge)
        with pytest.raises(ConfigError, match="exceeds the bound"):
            photon_dither_experiment(scenario, huge, 10, seed=1)

    def test_chunking_leaves_the_series_bitwise(self, monkeypatch):
        scenario = load_preset("fig1c").scenario
        whole = run_dither(scenario, self.ODD)
        monkeypatch.setattr(detection, "_SAMPLE_CHUNK", 100)
        assert np.array_equal(run_dither(scenario, self.ODD), whole)


def longdouble_dither(scenario, protocol, every):
    """Every every-th sample of the dither series, from the fold's rows in np.longdouble.

    Repeats the per-path walk of interferometer._fold_paths on the float64
    inputs (tilt columns, k, w0, grid), builds each row on the grid and sums
    its intensity over split_signal's weights, all in extended precision.
    """
    ld = np.longdouble
    beam, z = scenario.beam, scenario.distances
    k, w0 = ld(beam.k), ld(beam.w0)
    c = -1 / (w0**2 * (1 + 1j * ld(scenario.path_length) / (k * w0**2 / 2)))
    xs = scenario.grid.xs.astype(ld)
    envelope = np.abs(np.exp(c * xs**2)) ** 2
    halves = np.sign(xs) * envelope
    halves[0] = 0
    columns = protocol.tilts(protocol.times())
    series = []
    for i in range(0, protocol.sample_count, every):
        row = 0
        for path, a in port_amplitudes(scenario.output_port).items():
            shift = ramp = phase = ld(0)
            for mirror, prism in path_elements(scenario.dove, path):
                if prism:
                    shift, ramp = -shift, -ramp
                else:
                    alpha, zj = ld(columns[mirror][i]), ld(z[mirror])
                    shift = shift + zj * alpha
                    phase = phase - k * zj * alpha * (2 * ramp + alpha) / 2
                    ramp = ramp + alpha
            beta = 1j * k * ramp - 2 * c * shift
            row = row + ld(a) * np.exp(beta * xs + c * shift**2 + 1j * phase)
        intensity = np.abs(row) ** 2
        series.append(np.sum(halves * intensity) / np.sum(envelope * intensity))
    return np.array(series, dtype=np.float64)


def crest_moments(scenario):
    """The scenario's half-grid moments at the regime's crest bound R = _SERIES_RADIUS."""
    return detection._moments(
        scenario.grid, scenario.beam, scenario.path_length, detection._SERIES_RADIUS
    )


def at_kaw(scenario, kaw=1e-2):
    """The fast protocol with every amplitude at k alpha w0 = kaw."""
    amp = kaw / (scenario.beam.k * scenario.beam.w0)
    return DitherProtocol(
        amplitudes=MirrorTable((amp,) * len(Mirror), "amp"),
        frequencies=MirrorTable(FAST_FREQS), sample_rate=4000.0, duration=0.25,
    )


MOMENT_CASES = {
    **{name: load_preset(name).scenario for name in PRESET_NAMES},
    # A wide waist, where the old grid fold lost 2e-12 of the maximum to right - left.
    "waist-5mm": replace(
        load_preset("fig1c").scenario,
        beam=GaussianSpec(5e-3, 633e-9), grid=TransverseGrid(n=4096, half_width=0.08),
    ),
    "path_length-40": replace(
        load_preset("fig1c").scenario,
        path_length=40.0, grid=TransverseGrid(n=1024, half_width=0.1),
    ),
}


class TestMomentSeries:
    @pytest.mark.parametrize("case", sorted(MOMENT_CASES))
    def test_matches_the_longdouble_fold(self, case):
        scenario = MOMENT_CASES[case]
        protocol = at_kaw(scenario)
        crest_moments(scenario)  # in reach at R: GuardError otherwise
        oracle = longdouble_dither(scenario, protocol, every=10)
        series = run_dither(scenario, protocol)[::10]
        assert np.abs(series - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_order_follows_the_bound(self, grid, beam):
        length = default_scenario().path_length
        moments = detection._moments(grid, beam, length, detection._SERIES_RADIUS)
        assert moments.shape == (15, 3)  # M = 14, as _moments states
        # The last term kept is under the tolerance at the series radius.
        nu = np.sum(np.abs(gaussian_profile(grid.xs, beam, 2.0)) ** 2)
        last = abs(moments[-1, 1]) * detection._SERIES_RADIUS ** (len(moments) - 1)
        assert last <= detection._SERIES_TOLERANCE * nu

    @pytest.mark.parametrize("rayleigh_ranges, n, half_width", [(40, 2048, 0.25), (100, 8192, 0.6)])
    def test_wide_beams_read_the_series_at_their_own_radius(self, rayleigh_ranges, n, half_width):
        # Past the series' reach at R, inside it at the radius the run reaches (about 0.04).
        scenario = wide_scenario(rayleigh_ranges, n, half_width)
        with pytest.raises(GuardError, match="rounding gain"):
            crest_moments(scenario)
        protocol = at_kaw(scenario)
        oracle = longdouble_dither(scenario, protocol, every=10)
        series = run_dither(scenario, protocol)[::10]
        assert np.abs(series - oracle).max() <= 1e-15
        assert np.abs(oracle).max() > 1e-5
        # Without a dither the radius is 0, and so is the reach: the series is the moments' ratio.
        still = replace(protocol, amplitudes=MirrorTable((0.0,) * len(Mirror), "amp"))
        oracle = longdouble_dither(scenario, still, every=100)
        assert np.abs(run_dither(scenario, still)[::100] - oracle).max() <= 1e-15

    def test_a_beam_past_reach_at_its_own_radius_is_refused(self):
        scenario = wide_scenario(300, 16384, 1.6)
        # The run's reach is 2^-4, the power of two above its radius: the gain passes 2^10 there.
        gain = r"rounding gain \S+ at \|b w0\| <= 0.0625 passes 1024"
        with pytest.raises(GuardError, match=gain):
            run_dither(scenario, at_kaw(scenario))


def wide_scenario(rayleigh_ranges, n, half_width):
    """fig1c with the detector rayleigh_ranges z_R past the source, on a grid of n samples."""
    base = load_preset("fig1c").scenario
    return replace(
        base, path_length=rayleigh_ranges * base.beam.rayleigh_range,
        grid=TransverseGrid(n=n, half_width=half_width),
    )


def per_pair_dither(scenario, protocol, cut=False):
    """The series by one Horner pass per path pair, each from degree M, as run_dither once did.

    With cut, each chunk's passes start at the degree run_dither picks from the chunk's radius
    max |u| over every pair.  Also returns, per sample, sum_pq |pair term| / total, the scale
    of the rounding in the split sum.
    """
    moments = crest_moments(scenario)
    c, ik, w0 = scenario.curvature, 1j * scenario.beam.k, scenario.beam.w0
    times = protocol.times()
    series, scale = np.empty(times.size), np.empty(times.size)
    for start in range(0, times.size, detection._SAMPLE_CHUNK):
        span = times[start : start + detection._SAMPLE_CHUNK]
        walk = _fold_paths(scenario, protocol.tilts(span))
        paths = [(a * np.exp(c * s**2 + 1j * phi), ik * t - 2.0 * c * s) for a, s, t, phi in walk]
        us = {(p, q): (bp + np.conj(bq)) * w0
              for p, (_, bp) in enumerate(paths) for q, (_, bq) in enumerate(paths[p:], p)}
        degree = len(moments) - 1
        if cut:
            radius = max(float(np.abs(u).max()) for u in us.values())
            terms = detection._series_terms(moments, radius)
            degree = min(detection._first_small_term(terms), degree)
        sums, size = 0.0, 0.0
        for p, (ap, _) in enumerate(paths):
            for q, (aq, _) in enumerate(paths[p:], p):
                pair = np.full((2, span.size), moments[degree, :2, None], dtype=np.complex128)
                for mu in moments[degree - 1 :: -1, :2]:
                    pair *= us[p, q]
                    pair += mu[:, None]
                term = ((1.0 if p == q else 2.0) * ap * np.conj(aq) * pair).real
                sums, size = sums + term, size + np.abs(term[0])
        series[start : start + span.size] = sums[0] / sums[1]
        scale[start : start + span.size] = size / sums[1]
    return series, scale


def record_cuts(monkeypatch):
    """Patch run_dither's degree choice to log each chunk's (radius max |u|, degree).

    _moments makes the same call for each row it adds on a cache miss; only run_dither's
    calls, one per chunk, are logged.
    """
    cuts, first_small_term = [], detection._first_small_term

    def logged(terms):
        degree, caller = first_small_term(terms), sys._getframe(1)
        if caller.f_code is detection.run_dither.__code__:
            cuts.append((caller.f_locals["radius"], degree))
        return degree

    monkeypatch.setattr(detection, "_first_small_term", logged)
    return cuts


def regime_amplitudes(scenario, fractions):
    """Dither amplitudes at the given fractions of the regime: k alpha w0 and the walk-off."""
    beam = scenario.beam
    amps = np.array(fractions) * SMALL_ANGLE_KAW / (beam.k * beam.w0)
    walk = float(np.dot(scenario.distances, amps))
    if walk > WALKOFF_FRACTION * beam.w0:
        amps *= WALKOFF_FRACTION * beam.w0 / walk
    return MirrorTable(amps, "amp")


class TestOnePassOverPairs:
    """run_dither's one Horner pass over all pairs, cut at each chunk's radius."""

    @pytest.mark.parametrize("short", [False, True], ids=["default", "short"])
    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_presets_equal_the_per_pair_loop_bitwise(self, fast_protocol, preset_name, short):
        scenario = load_preset(preset_name).scenario
        protocol = fast_protocol if short else default_protocol()
        full, _ = per_pair_dither(scenario, protocol)
        assert run_dither(scenario, protocol).tobytes() == full.tobytes()

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_presets_cut_below_the_cached_degree(self, monkeypatch, preset_name):
        scenario = load_preset(preset_name).scenario
        moments = crest_moments(scenario)
        detection._moments.cache_clear()
        cuts = record_cuts(monkeypatch)
        run_dither(scenario, default_protocol())
        assert len(cuts) == 10  # one per chunk of 1024 samples
        # Every chunk's radius rounds up to the same power of two: one set of moments.
        assert detection._moments.cache_info().misses == 1
        assert {degree for _, degree in cuts} == {9}
        assert len(moments) - 1 == 14

    @settings(max_examples=40, deadline=None)
    @given(
        preset_name=st.sampled_from(PRESET_NAMES),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
        count=st.integers(441, 3071).filter(lambda n: n % 1024 != 0),
    )
    def test_regime_amplitudes_and_partial_chunks(self, preset_name, fractions, count):
        scenario = load_preset(preset_name).scenario
        protocol = DitherProtocol(
            amplitudes=regime_amplitudes(scenario, fractions),
            frequencies=MirrorTable(FAST_FREQS), sample_rate=4.0 * count, duration=0.25,
        )
        assert protocol.sample_count == count
        moments = crest_moments(scenario)
        with pytest.MonkeyPatch.context() as patch:
            cuts = record_cuts(patch)
            series = run_dither(scenario, protocol)
        assert len(cuts) == -(-count // detection._SAMPLE_CHUNK)
        # The pass is the per-pair loop's arithmetic, stacked: bitwise at the same degree.
        cut, _ = per_pair_dither(scenario, protocol, cut=True)
        assert series.tobytes() == cut.tobytes()
        # The terms past each chunk's degree are below the tolerance at its radius.
        for radius, degree in cuts:
            terms = detection._series_terms(moments, radius)
            assert degree <= len(moments) - 1
            assert sum(terms[degree + 1 :]) <= detection._SERIES_TOLERANCE * terms[0]
        # Against the full degree, the cut moves a sample by rounding steps of the split
        # sum's pair terms at most: the dropped terms are 2^-60 of the total or less.
        full, scale = per_pair_dither(scenario, protocol)
        assert np.all(np.abs(series - full) <= 8 * np.finfo(float).eps * scale)


#: The values the observables' property puts at random samples of a field or a series.
#: 1e150 squares to near float64's top: a finite intensity whose moment on a wide grid is not.
EXTREMES = [
    0.0, 1.0, -1.0, 1e150, -1e150, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan,
]


@st.composite
def with_extremes(draw, base, complex_values):
    """base (a zero or unit multiple of it) with EXTREMES put at up to 6 random samples."""
    out = draw(st.sampled_from([0.0, 1.0])) * base
    value = st.sampled_from(EXTREMES)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, base.size - 1))
        out[i] = complex(draw(value), draw(value)) if complex_values else draw(value)
    return out


class TestObservablesProperty:
    """Every field observable gives finite values or raises ConfigError or GuardError.

    Warnings are errors: a numpy warning is not a loud failure.
    """

    @staticmethod
    def finite_or_refused(call, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = call(*args)
            except (ConfigError, GuardError):
                return
        assert np.isfinite(value).all(), (call, value)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_field_observables(self, grid, beam, data):
        # The default grid's Gaussian samples, on a grid up to 1e10 m wide.
        gaussian = make_gaussian(beam, grid).amplitude.copy()
        wide = TransverseGrid(grid.n, data.draw(st.floats(grid.half_width, 1e10)))
        f = TransverseField(wide, data.draw(with_extremes(gaussian, True)), beam.k)
        self.finite_or_refused(power, f)
        self.finite_or_refused(centroid, f)
        self.finite_or_refused(split_signal, f)
        self.finite_or_refused(lambda g: sample_photons(g, 1000, 3).positions, f)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_spectrum(self, fast_protocol, data):
        wave = np.sin(2 * math.pi * FAST_FREQS[0] * fast_protocol.times())
        series = data.draw(with_extremes(wave, False))

        def report(s):
            got = spectrum(s, fast_protocol)
            return [*got.amplitudes.values(), got.noise_floor]

        self.finite_or_refused(report, series)
