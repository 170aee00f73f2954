import math
import os
import signal
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


def knots(f):
    """The cdf and cell edges sample_photons inverts, by the same expressions."""
    weights = f.amplitude.real**2 + f.amplitude.imag**2
    dx = f.grid.spacing
    edges = np.concatenate([f.grid.xs - 0.5 * dx, [f.grid.xs[-1] + 0.5 * dx]])
    return np.concatenate([[0.0], np.cumsum(weights)]) / float(weights.sum()), edges


def interp_positions(f, count, seed):
    """The positions sample_photons drew by one np.interp over one rng.random(count)."""
    cdf, edges = knots(f)
    return np.interp(np.random.default_rng(seed).random(count), cdf, edges)


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

    def test_negative_seed(self, grid, beam):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            sample_photons(make_gaussian(beam, grid), 10, seed=-1)

    def test_integer_likes_are_taken_as_ints(self, grid, beam):
        f = make_gaussian(beam, grid)
        sample = sample_photons(f, np.int64(10), seed=np.uint64(3))
        assert type(sample.count) is int and type(sample.seed) is int
        assert (sample.count, sample.seed) == (10, 3)
        assert sample.positions.tobytes() == interp_positions(f, 10, 3).tobytes()

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
        with pytest.raises(GuardError, match="no photons drawn"):
            sample_photons(TransverseField(grid, amp, beam.k), 10, seed=1)


CHUNK = detection._PHOTON_CHUNK


class TestGuideTableSampling:
    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_positions_equal_one_interp_bitwise(self, preset_name):
        preset = load_preset(preset_name)
        f = detector_field_numeric(preset.scenario, preset.tilts)
        for seed in (0, 7, 2**63 - 1):
            for count in (1, CHUNK - 1, CHUNK, CHUNK + 1, 1_000_003):
                got = sample_photons(f, count, seed).positions
                assert got.tobytes() == interp_positions(f, count, seed).tobytes(), (seed, count)

    def test_small_draw_on_the_largest_grid_equals_interp(self, beam):
        grid = TransverseGrid(n=2**16, half_width=default_scenario().grid.half_width)
        f = random_field(grid, beam, 5)
        for count in (1, 10, 1000):
            got = sample_photons(f, count, seed=3).positions
            assert got.tobytes() == interp_positions(f, count, 3).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_crafted_uniforms_on_flat_runs(self, grid, beam, seed):
        # Zero tails make flat runs of the cdf; one lone cell in the left tail
        # carries a subnormal share, so its slope overflows to inf.
        amp = random_field(grid, beam, seed).amplitude.copy()
        amp[np.abs(grid.xs) > 3.0 * beam.w0] = 0.0
        tiny = grid.n // 8
        amp[tiny] = math.sqrt(float(np.sum(np.abs(amp) ** 2)) * 1e-315)
        cdf, edges = knots(TransverseField(grid, amp, beam.k))
        assert cdf[tiny] == 0.0 and 0.0 < cdf[tiny + 1] < 1e-300
        assert cdf[-2] == cdf[-1]
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0), 5e-324],
            cdf, np.nextafter(cdf, 1.0), np.nextafter(cdf, 0.0),
            np.linspace(min(cdf[-1], 1.0), 1.0, 17),
            np.random.default_rng(seed).random(5000),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = np.interp(u, cdf, edges)
        for buckets in (1, 8, 4 * grid.n, detection._BUCKETS_PER_CELL * grid.n):
            got = u.copy()
            table = detection._GuideTable(detection._Knots(cdf, edges), buckets)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table.place(got)
            assert got.tobytes() == expected.tobytes(), buckets

    def test_knots_on_bucket_bounds(self, grid, beam):
        # Eight unit-weight cells put every knot on a multiple of 1/8, so they
        # sit exactly on the left bounds of buckets that hold no other knot.
        amp = np.zeros(grid.n, dtype=complex)
        amp[grid.n // 2 - 4 : grid.n // 2 + 4] = 1.0
        cdf, edges = knots(TransverseField(grid, amp, beam.k))
        assert set(np.unique(cdf)) == {k / 8 for k in range(9)}
        u = np.arange(64) / 64
        u = np.concatenate([u, np.nextafter(u, 1.0), np.nextafter(u[1:], 0.0)])
        expected = np.interp(u, cdf, edges)
        for buckets in (1, 8, 16, 64, 4 * grid.n, detection._BUCKETS_PER_CELL * grid.n):
            got = u.copy()
            detection._GuideTable(detection._Knots(cdf, edges), buckets).place(got)
            assert got.tobytes() == expected.tobytes(), buckets

    def test_crafted_cases_reach_both_ends_of_the_last_knot(self, grid, beam):
        # cdf[-1] is a rounded cumulative sum over a rounded total: the crafted
        # test must meet fields where it falls short of 1 and where it reaches it.
        ends = set()
        for seed in range(6):
            amp = random_field(grid, beam, seed).amplitude.copy()
            amp[np.abs(grid.xs) > 3.0 * beam.w0] = 0.0
            cdf, _ = knots(TransverseField(grid, amp, beam.k))
            ends.add(cdf[-1] < 1.0)
        assert ends == {True, False}


    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_split_draws_equal_one_interp_bitwise(self, monkeypatch, workers):
        monkeypatch.setattr(detection, "_WORKERS", workers)
        preset = load_preset("fig1c")
        f = detector_field_numeric(preset.scenario, preset.tilts)
        split, step = detection._SPLIT_MIN * workers, CHUNK // workers
        # One thread fewer just below split; odd counts end on a part chunk.
        counts = (split - 1, split, split + 12_345, split + step // 2 + 1, 3 * split + 7)
        for seed in (0, 7, 2**63 - 1):
            for count in counts:
                got = sample_photons(f, count, seed).positions
                assert got.tobytes() == interp_positions(f, count, seed).tobytes(), (seed, count)

    def test_interleaved_chunks_equal_one_interp_bitwise(self, monkeypatch, grid, beam):
        # A barrier makes the caller and its helper place one chunk each in turn,
        # so each claims chunks with gaps and advances its stream across them.
        monkeypatch.setattr(detection, "_WORKERS", 2)
        f = random_field(grid, beam, 6)
        count = 4 * (CHUNK // 2) - 5  # four chunks, the last one short
        place, turns, placed = detection._GuideTable.place, threading.Barrier(2), []

        def place_in_turn(table, u):
            turns.wait(timeout=30)
            placed.append((threading.get_ident(), (u.ctypes.data - u.base.ctypes.data) // 8))
            place(table, u)

        monkeypatch.setattr(detection._GuideTable, "place", place_in_turn)
        got = sample_photons(f, count, seed=8).positions
        assert got.tobytes() == interp_positions(f, count, 8).tobytes()
        by_thread = {}
        for thread, lo in placed:
            by_thread.setdefault(thread, []).append(lo)
        assert len(by_thread) == 2 and all(len(los) == 2 for los in by_thread.values())
        assert any(los[1] - los[0] > CHUNK // 2 for los in by_thread.values())

    def test_a_helper_failure_is_raised_in_the_caller(self, monkeypatch, grid, beam):
        monkeypatch.setattr(detection, "_WORKERS", 2)
        f = random_field(grid, beam, 1)
        count = 4 * detection._SPLIT_MIN
        place, helper_failed = detection._GuideTable.place, threading.Event()

        def fail_in_a_helper(table, u):
            if threading.current_thread() is not threading.main_thread():
                helper_failed.set()
                raise RuntimeError("a helper failed")
            assert helper_failed.wait(timeout=30)  # the helper claims a chunk first
            place(table, u)

        with monkeypatch.context() as patch:
            patch.setattr(detection._GuideTable, "place", fail_in_a_helper)
            with pytest.raises(RuntimeError, match="a helper failed"):
                sample_photons(f, count, seed=4)
        # The helper that failed is still serving draws.
        helpers = [t for t in threading.enumerate() if t.name.startswith("sample_photons")]
        assert helpers and all(helper.is_alive() for helper in helpers)
        got = sample_photons(f, count, seed=4).positions
        assert got.tobytes() == interp_positions(f, count, 4).tobytes()

    def test_a_failure_in_the_callers_chunk_is_raised(self, monkeypatch, grid, beam):
        monkeypatch.setattr(detection, "_WORKERS", 2)
        f = random_field(grid, beam, 7)
        count = 4 * detection._SPLIT_MIN
        place, helper_claimed, caller_claimed = (
            detection._GuideTable.place, threading.Event(), threading.Event()
        )

        def fail_in_the_caller(table, u):
            # Each waits for the other, so both hold a chunk when the caller fails.
            if threading.current_thread() is threading.main_thread():
                caller_claimed.set()
                assert helper_claimed.wait(timeout=30)
                raise RuntimeError("the caller failed")
            helper_claimed.set()
            assert caller_claimed.wait(timeout=30)
            place(table, u)

        with monkeypatch.context() as patch:
            patch.setattr(detection._GuideTable, "place", fail_in_the_caller)
            with pytest.raises(RuntimeError, match="the caller failed"):
                sample_photons(f, count, seed=9)
        got = sample_photons(f, count, seed=9).positions
        assert got.tobytes() == interp_positions(f, count, 9).tobytes()

    def test_a_split_draw_is_not_retained(self, monkeypatch, grid, beam):
        monkeypatch.setattr(detection, "_WORKERS", 2)
        sample = sample_photons(random_field(grid, beam, 2), 2 * detection._SPLIT_MIN, seed=5)
        positions = weakref.ref(sample.positions)
        del sample
        assert positions() is None

    def test_concurrent_split_draws_share_the_helpers(self, monkeypatch, grid, beam):
        # More workers than cores, callers racing to start the helpers, fast switching.
        extra_cores = max(1, detection._WORKERS - 1)
        monkeypatch.setattr(detection, "_WORKERS", 4)
        f = random_field(grid, beam, 4)
        count = 4 * detection._SPLIT_MIN + 3
        expected = {seed: interp_positions(f, count, seed).tobytes() for seed in range(4)}
        results = {}

        def draw(seed):
            results[seed] = [sample_photons(f, count, seed).positions.tobytes() for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=draw, args=(seed,)) for seed in expected]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == {seed: [got] * 3 for seed, got in expected.items()}
        helpers = [t for t in threading.enumerate() if t.name.startswith("sample_photons")]
        assert 1 <= len(helpers) <= extra_cores

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helpers(self, monkeypatch, grid, beam):
        monkeypatch.setattr(detection, "_WORKERS", 2)
        f = random_field(grid, beam, 3)
        count = 2 * detection._SPLIT_MIN
        sample_photons(f, count, seed=6)  # the parent's helper is running
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(60)  # a child waiting on its parent's helper would hang
                got = sample_photons(f, count, seed=6).positions
                code = int(got.tobytes() != interp_positions(f, count, 6).tobytes())
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_importing_the_cli_starts_no_pool(self):
        # The executor is imported, and its pool made, by the first shared draw only.
        src = os.path.dirname(os.path.dirname(detection.__file__))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, nested_mzi_lab.cli; print('concurrent.futures' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestKnotCache:
    """A field's knots and guide tables are built by its first draw and read by the next."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(detection, "_KNOTS", type(detection._KNOTS)(maxlen=2))

    @pytest.fixture
    def builds(self, monkeypatch):
        """The bucket counts of the guide tables built, in order."""
        built = []

        class Counted(detection._GuideTable):
            def __init__(self, knots, buckets):
                built.append(buckets)
                super().__init__(knots, buckets)

        monkeypatch.setattr(detection, "_GuideTable", Counted)
        return built

    def test_repeated_draws_build_the_tables_once(self, builds, grid, beam):
        f = random_field(grid, beam, 11)
        cap = detection._BUCKETS_PER_CELL * grid.n
        for count in (1000, 1000, cap - 1, cap, cap + 1, 100_000, 1000, cap + 1):
            for seed in (0, 5):
                got = sample_photons(f, count, seed).positions
                assert got.tobytes() == interp_positions(f, count, seed).tobytes(), count
        assert builds == [1024, cap]
        assert len(detection._KNOTS) == 1

    def test_alternating_fields_equal_interp(self, builds, grid, beam):
        fields = [random_field(grid, beam, seed) for seed in (12, 13)]
        cap = detection._BUCKETS_PER_CELL * grid.n
        counts = (10, cap // 2 + 1, cap, cap + 1, 2 * detection._SPLIT_MIN + 3, 10)
        for seed, count in enumerate(counts):
            for f in fields:
                got = sample_photons(f, count, seed).positions
                assert got.tobytes() == interp_positions(f, count, seed).tobytes(), count
        assert builds == [16, 16, cap, cap]

    def test_a_third_field_evicts_the_first(self, builds, grid, beam):
        fields = [random_field(grid, beam, seed) for seed in (14, 15, 16)]
        for f in (*fields, fields[0]):
            got = sample_photons(f, 100, seed=1).positions
            assert got.tobytes() == interp_positions(f, 100, 1).tobytes()
        assert builds == [128] * 4
        assert [entry[0]() for entry in detection._KNOTS] == [
            fields[2].amplitude, fields[0].amplitude
        ]

    def test_a_shared_buffer_on_another_grid_gets_its_own_knots(self, builds, grid, beam):
        f = random_field(grid, beam, 17)
        wider = TransverseField(replace(grid, half_width=1.5 * grid.half_width), f.amplitude, f.k)
        assert wider.amplitude is f.amplitude
        for field in (f, wider, f, wider):
            got = sample_photons(field, 5000, seed=2).positions
            assert got.tobytes() == interp_positions(field, 5000, 2).tobytes()
        assert builds == [8192, 8192]
        assert sample_photons(f, 10, 3).positions.tobytes() != sample_photons(
            wider, 10, 3).positions.tobytes()

    def test_a_dropped_field_is_not_kept_alive(self, grid, beam):
        f = random_field(grid, beam, 18)
        sample_photons(f, 10, seed=1)
        amplitude = weakref.ref(f.amplitude)
        del f
        assert amplitude() is None

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_non_finite_field_raises_on_every_call(self, builds, grid, beam, value):
        amp = make_gaussian(beam, grid).amplitude.copy()
        amp[grid.n // 2] = value
        f = TransverseField(grid, amp, beam.k)
        for _ in range(2):
            with pytest.raises(GuardError, match="no photons drawn"):
                sample_photons(f, 10, seed=1)
        assert not detection._KNOTS and not builds

    def test_concurrent_draws_on_two_fields(self, monkeypatch, grid, beam):
        monkeypatch.setattr(detection, "_WORKERS", 3)
        fields = [random_field(grid, beam, seed) for seed in (19, 20)]
        count = 3 * detection._SPLIT_MIN + 5
        expected = {
            (i, seed): interp_positions(f, count, seed).tobytes()
            for i, f in enumerate(fields) for seed in (4, 5)
        }
        results = {}

        def draw(i, seed):
            results[i, seed] = [
                sample_photons(fields[i], count, seed).positions.tobytes() for _ in range(3)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=draw, args=key) for key in expected]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == {key: [got] * 3 for key, got in expected.items()}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_reads_and_builds_knots(self, monkeypatch, grid, beam):
        monkeypatch.setattr(detection, "_WORKERS", 2)
        f, fresh = random_field(grid, beam, 21), random_field(grid, beam, 22)
        count = 2 * detection._SPLIT_MIN + 1
        sample_photons(f, count, seed=6)  # the parent's knots for f, and its helper
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(60)
                same = [
                    sample_photons(g, count, seed=7).positions.tobytes()
                    == interp_positions(g, count, 7).tobytes()
                    for g in (f, fresh, f)
                ]
                code = int(not all(same) or len(detection._KNOTS) != 2)
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_retained_memory_at_the_largest_grid_is_bounded(self, beam):
        # Each fresh field gets a table per power of two up to _MAX_BUCKETS, the
        # most a field can hold; only the last two fields' knots may stay.
        grid = TransverseGrid(n=MAX_SAMPLES, half_width=default_scenario().grid.half_width)
        counts = [2**b + 1 for b in range(detection._MAX_BUCKETS.bit_length())]
        knots, tables = 3 * 8 * (grid.n + 1), 8 * (2 * detection._MAX_BUCKETS - 1)
        bound = detection._KNOTS.maxlen * (knots + tables)
        assert round(bound / 2**20) == 11  # the bound the module states
        sample_photons(random_field(grid, beam, 0), 1, seed=0)  # grid.xs, and the pool
        detection._pool()
        detection._KNOTS.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(3):
                f = random_field(grid, beam, seed)
                for count in counts:
                    sample_photons(f, count, seed)
                del f
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(detection._KNOTS) == 2
        assert 2 * knots < retained <= bound + 2**16


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
        assert detection._moments(scenario.grid, scenario.beam, scenario.path_length) is not None
        oracle = longdouble_dither(scenario, protocol, every=10)
        series = run_dither(scenario, protocol)[::10]
        assert np.abs(series - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_order_follows_the_bound(self, grid, beam):
        moments = detection._moments(grid, beam, default_scenario().path_length)
        assert moments.shape == (15, 3)  # M = 14, as _moments states
        # The last term kept is under the tolerance at the series radius.
        nu = np.sum(np.abs(gaussian_profile(grid.xs, beam, 2.0)) ** 2)
        last = abs(moments[-1, 1]) * detection._SERIES_RADIUS ** (len(moments) - 1)
        assert last <= detection._SERIES_TOLERANCE * nu

    def test_too_wide_a_beam_splits_each_field(self):
        # At L = 40 z_R the beam is 40 waists wide: the series' rounding gain
        # passes its bound, and each sample's analytic field is split instead.
        base = load_preset("fig1c").scenario
        scenario = replace(
            base, path_length=40.0 * base.beam.rayleigh_range,
            grid=TransverseGrid(n=2048, half_width=0.25),
        )
        assert detection._moments(scenario.grid, scenario.beam, scenario.path_length) is None
        protocol = at_kaw(scenario)
        oracle = longdouble_dither(scenario, protocol, every=10)
        series = run_dither(scenario, protocol)[::10]
        # split_signal's error is a few rounding steps of 1, not of the signal
        # (at most 2e-4): each sample's intensity carries its own rounding, which
        # the sign-weighted sum passes on rather than cancels.
        assert np.abs(series - oracle).max() <= 1e-15
        assert np.abs(oracle).max() > 1e-4


def per_pair_dither(scenario, protocol, cut=False):
    """The series by one Horner pass per path pair, each from degree M, as run_dither once did.

    With cut, each chunk's passes start at the degree run_dither picks from the chunk's radius
    max |u| over every pair.  Also returns, per sample, sum_pq |pair term| / total, the scale
    of the rounding in the split sum.
    """
    moments = detection._moments(scenario.grid, scenario.beam, scenario.path_length)
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
    """Patch run_dither's degree choice to log each chunk's (terms t_m at its radius, degree)."""
    cuts, first_small_term = [], detection._first_small_term

    def logged(terms):
        cuts.append((terms, first_small_term(terms)))
        return cuts[-1][1]

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
        moments = detection._moments(scenario.grid, scenario.beam, scenario.path_length)
        cuts = record_cuts(monkeypatch)
        run_dither(scenario, default_protocol())
        assert len(cuts) == 10  # one per chunk of 1024 samples
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
        moments = detection._moments(scenario.grid, scenario.beam, scenario.path_length)
        with pytest.MonkeyPatch.context() as patch:
            cuts = record_cuts(patch)
            series = run_dither(scenario, protocol)
        assert len(cuts) == -(-count // detection._SAMPLE_CHUNK)
        # The pass is the per-pair loop's arithmetic, stacked: bitwise at the same degree.
        cut, _ = per_pair_dither(scenario, protocol, cut=True)
        assert series.tobytes() == cut.tobytes()
        # The terms past each chunk's degree are below the tolerance at its radius.
        for terms, degree in cuts:
            assert degree <= len(moments) - 1
            assert sum(terms[degree + 1 :]) <= detection._SERIES_TOLERANCE * terms[0]
        # Against the full degree, the cut moves a sample by rounding steps of the split
        # sum's pair terms at most: the dropped terms are 2^-60 of the total or less.
        full, scale = per_pair_dither(scenario, protocol)
        assert np.all(np.abs(series - full) <= 8 * np.finfo(float).eps * scale)
