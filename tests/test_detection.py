import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    ConfigError,
    DitherProtocol,
    PRESET_NAMES,
    Dove,
    Mirror,
    MirrorTable,
    TiltSet,
    TransverseField,
    ZeroNormError,
    centroid,
    default_scenario,
    detector_field_numeric,
    load_preset,
    make_gaussian,
    parity_x,
    photon_dither_experiment,
    run_dither,
    sample_photons,
    spectrum,
    split_signal,
)
from conftest import FAST_FREQS, random_field, with_value
from nested_mzi_lab import detection
from nested_mzi_lab.detection import MAX_DITHER_WORK, MAX_PHOTONS_PER_SAMPLE


def shifted_gaussian(grid, beam, d):
    amp = np.exp(-((grid.xs - d) ** 2) / beam.w0**2).astype(complex)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * grid.spacing))
    return TransverseField(grid, amp, beam.k)


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
        assert report.noise_floor == 0.0

    def test_length_mismatch(self, fast_protocol):
        with pytest.raises(ConfigError):
            spectrum(np.zeros(17), fast_protocol)

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

    def test_negative_seed(self, grid, beam):
        with pytest.raises(ConfigError, match="seed"):
            sample_photons(make_gaussian(beam, grid), 10, seed=-1)

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

    def test_count_guard(self, fast_protocol):
        with pytest.raises(ConfigError):
            photon_dither_experiment(default_scenario(), fast_protocol, 0, seed=1)

    @pytest.mark.parametrize(
        "photons, seed", [(10, -1), (MAX_PHOTONS_PER_SAMPLE + 1, 1)], ids=["seed", "count"]
    )
    def test_refused_before_the_dither_run(self, monkeypatch, fast_protocol, photons, seed):
        def no_dither(scenario, protocol):
            raise AssertionError("run_dither reached")

        monkeypatch.setattr(detection, "run_dither", no_dither)
        with pytest.raises(ConfigError):
            photon_dither_experiment(default_scenario(), fast_protocol, photons, seed)


class TestBlockedDither:
    # 1001 samples: not a multiple of the engine's block of samples.
    ODD = DitherProtocol(frequencies=MirrorTable(FAST_FREQS), sample_rate=4004.0, duration=0.25)

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_equals_the_per_sample_loop_bitwise(self, preset_name):
        scenario = load_preset(preset_name).scenario
        protocol = self.ODD
        assert protocol.sample_count == 1001
        loop = np.array([
            split_signal(detector_field_numeric(scenario, protocol.tilts_at(t)))
            for t in protocol.times()
        ])
        assert np.array_equal(run_dither(scenario, protocol), loop)

    def test_tilt_block_rows_equal_tilts_at(self, fast_protocol):
        times = fast_protocol.times()[:50]
        block = fast_protocol.tilts(times)
        for r, t in enumerate(times):
            assert tuple(column[r] for column in block) == fast_protocol.tilts_at(t)

    def test_split_signal_row_by_row(self, grid, beam):
        rows = np.stack([random_field(grid, beam, seed).amplitude for seed in range(4)])
        signals = split_signal(TransverseField(grid, rows, beam.k))
        assert signals.shape == (4,)
        for signal, amp in zip(signals, rows):
            assert signal == split_signal(TransverseField(grid, amp, beam.k))

    def test_split_signal_zero_power_row(self, grid, beam):
        rows = np.stack([random_field(grid, beam, 1).amplitude, np.zeros(grid.n)])
        with pytest.raises(ZeroNormError):
            split_signal(TransverseField(grid, rows, beam.k))

    def test_work_bound_refused_before_allocation(self):
        scenario = default_scenario()
        huge = DitherProtocol(duration=1e9)
        assert huge.sample_count * scenario.grid.n > MAX_DITHER_WORK
        with pytest.raises(ConfigError, match="sample_count 10000000000000 x grid_n 1024"):
            run_dither(scenario, huge)
        with pytest.raises(ConfigError, match="exceeds the bound"):
            photon_dither_experiment(scenario, huge, 10, seed=1)
