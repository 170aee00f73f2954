import gc
import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    AliasingError,
    ConfigError,
    DitherProtocol,
    Dove,
    GuardError,
    Mirror,
    MirrorTable,
    OutputPort,
    TiltSet,
    TransverseField,
    TransverseGrid,
    alpha_step,
    centroid,
    check_small_angle_regime,
    default_beam,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    field_before_F,
    gaussian_profile,
    load_preset,
    power,
    run_dither,
    split_signal,
    weak_value_report,
    PRESET_NAMES,
)
from nested_mzi_lab import fields, interferometer
from nested_mzi_lab.detection import _moments
from nested_mzi_lab.elements import MAX_TILT
from nested_mzi_lab.interferometer import PRESET_TILT, _fold_paths, _trace
from conftest import CORNERS, FAST_FREQS, norm, tilts_at, widest_scenario, with_value

W0 = default_beam().w0
STEP = alpha_step(default_beam())
#: k alpha w0 at the regime's edge, at the presets' own 50 urad, and four times that.
KAWS = (1e-2, 0.5, 2.0)
#: z over A, B, C, E, F with z_A != z_B: the inner arms part at E.
UNEQUAL_INNER_ARMS = MirrorTable((1.2, 0.8, 1.0, 1.5, 0.5), "z")


def assert_engines_agree(scenario, rows, tolerance=1e-12):
    """The fold equals the numeric field within tolerance of its peak at each row of tilts."""
    for angles in rows:
        tilts = TiltSet(np.asarray(angles, dtype=float).tolist())
        numeric = detector_field_numeric(scenario, tilts).amplitude
        analytic = detector_field_analytic(scenario, tilts).amplitude
        assert np.isfinite(analytic).all()
        assert np.abs(analytic - numeric).max() <= tolerance * np.abs(numeric).max()


@pytest.fixture(scope="module")
def bright():
    return default_scenario()


@pytest.fixture(scope="module")
def dove():
    return default_scenario(dove=Dove.BEFORE)


class TestScenarioValidation:
    def test_ordering_e_before_inner(self, bright):
        with pytest.raises(ConfigError):
            # z_E must exceed z_A and z_B
            replace(bright, distances=with_value(bright.distances, Mirror.E, 0.9))

    def test_ordering_f_after_inner(self, bright):
        with pytest.raises(ConfigError):
            replace(bright, distances=with_value(bright.distances, Mirror.F, 1.2))

    def test_path_length_bound(self, bright):
        with pytest.raises(ConfigError):
            replace(bright, path_length=1.2)

    def test_positive_distances(self, bright):
        with pytest.raises(ConfigError):
            replace(bright, distances=with_value(bright.distances, Mirror.C, -1.0))

    def test_presets_resolve(self):
        for name in PRESET_NAMES:
            preset = load_preset(name)
            assert preset.name == name
        with pytest.raises(ConfigError):
            load_preset("fig9z")

    def test_preset_configurations(self):
        assert load_preset("fig1a").scenario.dove is Dove.OFF
        assert load_preset("fig1c").scenario.dove is Dove.BEFORE
        assert load_preset("dove-after").scenario.dove is Dove.AFTER
        assert (
            load_preset("alt-port").scenario.output_port
            is OutputPort.ALTERNATE_INNER_PORT
        )


class TestAnalyticEngine:
    def test_aligned_field_and_probability(self, bright):
        f = detector_field_analytic(bright, TiltSet())
        assert power(f) == pytest.approx(1.0 / 3.0, rel=1e-12)
        expected = gaussian_profile(bright.grid.xs, bright.beam, bright.path_length)
        residual = f.amplitude - expected / math.sqrt(3.0)
        assert norm(TransverseField(bright.grid, residual, f.k)) < 1e-12

    def test_e_tilt_leaves_centroid_null_without_dove(self, bright):
        f = detector_field_analytic(bright, TiltSet.single(Mirror.E, 1e-6))
        assert abs(centroid(f)) < 1e-3 * W0

    def test_e_tilt_reads_minus_two_with_dove(self, dove):
        alpha = 1e-6
        f = detector_field_analytic(dove, TiltSet.single(Mirror.E, alpha))
        assert centroid(f) == pytest.approx(-2.0 * dove.distances[Mirror.E] * alpha, rel=1e-2)

    @pytest.mark.parametrize(
        "preset_name, distances",
        [pytest.param(name, None, id=name) for name in PRESET_NAMES]
        + [
            # z_A != z_B: the inner arms part at E, as in the benchmark's interactive calls.
            pytest.param(name, UNEQUAL_INNER_ARMS, id=f"{name}-unequal-inner-arms")
            for name in ("fig1c", "alt-port")
        ],
    )
    def test_equals_the_numeric_engine(self, preset_name, distances):
        # The fold is exact within the paraxial model, so the engines differ
        # by rounding only, at any tilts inside the regime.
        scenario = load_preset(preset_name).scenario
        if distances is not None:
            scenario = replace(scenario, distances=distances)
        rng = np.random.default_rng(11)
        for _ in range(10):
            tilts = TiltSet(rng.uniform(-STEP, STEP, size=len(Mirror)))
            numeric = detector_field_numeric(scenario, tilts).amplitude
            folded = detector_field_analytic(scenario, tilts).amplitude
            assert np.abs(folded - numeric).max() <= 1e-13 * np.abs(numeric).max()

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_agrees_with_the_numeric_engine_past_the_regime(self, preset_name):
        # The fold is exact at every tilt the paraxial guard accepts (k alpha w0 up to 9.9),
        # not only in the first-order regime: the preset's own mirror and all five mirrors
        # at each k alpha w0 in KAWS, then random tilts over the whole guard.
        preset = load_preset(preset_name)
        beam = preset.scenario.beam
        own = np.array(list(preset.tilts)) / PRESET_TILT
        signed = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        rows = [kaw / (beam.k * beam.w0) * v for kaw in KAWS for v in (own, signed)]
        rng = np.random.default_rng(23)
        rows += list(rng.uniform(-0.999 * MAX_TILT, 0.999 * MAX_TILT, size=(30, len(Mirror))))
        assert_engines_agree(preset.scenario, rows)


class TestNumericEngine:
    def test_matches_analytic_when_aligned(self, bright):
        fa = detector_field_analytic(bright, TiltSet())
        fn = detector_field_numeric(bright, TiltSet())
        assert norm(
            TransverseField(bright.grid, fa.amplitude - fn.amplitude, fa.k)
        ) < 1e-10

    def test_aligned_dove_output_is_centered(self, dove):
        f = detector_field_numeric(dove, TiltSet())
        assert abs(centroid(f)) < 1e-9 * W0

    @pytest.mark.parametrize("mirror", list(Mirror))
    @pytest.mark.parametrize("preset_name", ["fig1b", "fig1c"])
    def test_single_tilt_centroid_matches_analytic(self, preset_name, mirror):
        scenario = load_preset(preset_name).scenario
        tilts = TiltSet.single(mirror, STEP)
        reference = centroid(detector_field_analytic(scenario, tilts))
        measured = centroid(detector_field_numeric(scenario, tilts))
        assert abs(measured - reference) <= 0.01 * max(abs(reference), 1e-3 * W0)

    @settings(max_examples=20, deadline=None)
    @given(seeds=st.tuples(*[st.floats(-1.0, 1.0) for _ in Mirror]))
    def test_multi_tilt_centroid_matches_analytic(self, seeds):
        # All five mirrors tilt at once, so each path's elements are checked
        # together: upstream tilts, the prism's parity and downstream tilts.
        tilts = TiltSet(0.4 * STEP * s for s in seeds)
        for name in PRESET_NAMES:
            scenario = load_preset(name).scenario
            reference = centroid(detector_field_analytic(scenario, tilts))
            measured = centroid(detector_field_numeric(scenario, tilts))
            assert abs(measured - reference) <= 0.01 * max(abs(reference), 1e-3 * W0)

    def test_large_e_tilt_runs_beyond_regime(self, bright):
        # At k alpha w0 = 5 the first-order laws no longer hold, but the two
        # engines still give one field and one centroid.
        tilts = TiltSet.single(Mirror.E, 5e-4)
        assert_engines_agree(bright, [list(tilts)])
        residual = centroid(detector_field_numeric(bright, tilts))
        assert math.isfinite(residual)
        analytic = centroid(detector_field_analytic(bright, tilts))
        assert analytic == pytest.approx(residual, rel=1e-9, abs=1e-12 * W0)

    def test_total_probability_bounded(self, dove):
        for tilts in (TiltSet(), TiltSet.single(Mirror.E, 3e-5), TiltSet.single(Mirror.A, 5e-5)):
            assert power(detector_field_numeric(dove, tilts)) <= 1.0 + 1e-9


class TestEngineInvariants:
    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.tuples(*[st.floats(-1.0, 1.0) for _ in range(5)]),
    )
    def test_linearity_of_response(self, seeds):
        scenario = load_preset("fig1c").scenario
        angles = dict(zip(Mirror, (0.4 * STEP * s for s in seeds)))
        combined = TiltSet(angles[m] for m in Mirror)
        total = centroid(detector_field_numeric(scenario, combined))
        parts = sum(
            centroid(detector_field_numeric(scenario, TiltSet.single(m, angles[m])))
            for m in Mirror
        )
        assert abs(total - parts) <= 0.02 * max(abs(parts), 1e-9)

    def test_joint_inner_tilt_cancels(self, bright):
        alpha = 5e-5  # z_A = z_B, so equal tilts of A and B leave no trace
        tilts = TiltSet((alpha, alpha, 0.0, 0.0, 0.0))  # over A, B, C, E, F
        assert abs(centroid(detector_field_numeric(bright, tilts))) < 1e-3 * W0

    @pytest.mark.parametrize("scenario_name", ["fig1b", "fig1c"])
    def test_f_null(self, scenario_name):
        scenario = load_preset(scenario_name).scenario
        f = detector_field_numeric(scenario, TiltSet.single(Mirror.F, 5e-5))
        assert abs(centroid(f)) < 1e-3 * W0


class TestFieldBeforeF:
    def test_cancellation_without_dove(self, bright):
        f = field_before_F(bright, TiltSet.single(Mirror.E, 1e-6))
        assert power(f) < 1e-6 * (1.0 / 3.0)

    def test_dove_breaks_cancellation_quadratically(self, dove):
        alpha = 0.5e-6
        p1 = power(field_before_F(dove, TiltSet.single(Mirror.E, alpha)))
        p2 = power(field_before_F(dove, TiltSet.single(Mirror.E, 2 * alpha)))
        assert p1 > 0.0
        assert p2 / p1 == pytest.approx(4.0, rel=5e-2)

    def test_aligned_beam_ignores_prisms(self, dove):
        assert power(field_before_F(dove, TiltSet())) < 1e-12

    @pytest.mark.parametrize("z_a, z_b", [(1.2, 0.8), (0.8, 1.2)])
    def test_cancellation_with_unequal_inner_distances(self, bright, z_a, z_b):
        # Each arm still travels z_E - z_F in all to F's plane; a shared E-to-inner
        # step reused across unequal distances would break the cancellation.
        z = with_value(with_value(bright.distances, Mirror.A, z_a), Mirror.B, z_b)
        scenario = replace(bright, distances=z)
        assert power(field_before_F(scenario, TiltSet())) < 1e-12


class TestAlternatePort:
    def test_aligned_probability(self):
        scenario = load_preset("alt-port").scenario
        f = detector_field_numeric(scenario, TiltSet())
        assert power(f) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_prisms_invisible_when_aligned(self):
        scenario = load_preset("alt-port").scenario
        with_dove = detector_field_numeric(scenario, TiltSet())
        without = detector_field_numeric(
            replace(scenario, dove=Dove.OFF), TiltSet()
        )
        assert np.max(np.abs(with_dove.amplitude - without.amplitude)) < 1e-12

    def test_e_response_vanishes_with_dove(self):
        # The converse pattern: on the alternate port with prisms in place,
        # tilting E produces no first-order centroid response.
        scenario = load_preset("alt-port").scenario
        f = detector_field_numeric(scenario, TiltSet.single(Mirror.E, STEP))
        assert abs(centroid(f)) < 1e-2 * scenario.distances[Mirror.E] * STEP


#: The numeric engine's caches and the rows they may keep: 16 transfer functions,
#: 2 + 2 prefixes and 28 traced steps.
ENGINE_CACHES = (
    fields._transfer_function, interferometer._outer_prefix,
    interferometer._reference_prefix, _trace,
)
CACHED_ROWS = 16 + 2 + 2 + 28


def clear_engine_caches():
    for cache in ENGINE_CACHES:
        cache.cache_clear()


def propagations(monkeypatch) -> list[float]:
    """The distance of each numeric-engine propagate call from now on, as a growing list."""
    calls = []
    monkeypatch.setattr(
        interferometer, "propagate", lambda f, z: calls.append(z) or fields.propagate(f, z)
    )
    return calls


def report_propagations(monkeypatch) -> int:
    """The numeric engine's propagate calls in one cold weak-values report on unequal arms."""
    calls = propagations(monkeypatch)
    clear_engine_caches()
    weak_value_report(replace(load_preset("fig1c").scenario, distances=UNEQUAL_INNER_ARMS))
    return len(calls)


class TestEngineCaches:
    def test_weak_value_report_traces_each_distinct_path_once(self):
        # Ten fields of three paths trace 33 distinct steps: per inner path 3 untilted,
        # 6 with E tilted, 4 with its inner mirror tilted and 2 with F tilted, and on C
        # 1 untilted and 2 tilted.  30 lookups start the fields, and each of the 24 steps
        # past a path's first mirror looks up the one before it: 21 of the 54 hit.
        clear_engine_caches()
        weak_value_report(replace(load_preset("fig1c").scenario, distances=UNEQUAL_INNER_ARMS))
        info = _trace.cache_info()
        assert (info.misses, info.hits) == (33, 21)

    def test_weak_value_report_propagates_each_step_once(self, monkeypatch):
        # The 33 distinct traced steps and the 2 prefixes, each propagated once.
        assert report_propagations(monkeypatch) == 35

    def test_trace_cache_holds_one_reports_working_set(self, monkeypatch):
        # One entry fewer and the report repeats a step it has already propagated.
        smaller = lru_cache(maxsize=_trace.cache_info().maxsize - 1)(_trace.__wrapped__)
        monkeypatch.setattr(interferometer, "_trace", smaller)
        assert report_propagations(monkeypatch) > 35

    @pytest.mark.parametrize("unequal", [False, True], ids=["preset", "unequal-inner-arms"])
    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_reused_traces_give_the_cold_field_bitwise(self, preset_name, unequal):
        preset = load_preset(preset_name)
        scenario = preset.scenario
        if unequal:
            scenario = replace(scenario, distances=UNEQUAL_INNER_ARMS)
        rows = [preset.tilts, TiltSet((3e-7, -2e-7, 4e-7, -5e-7, 1e-7))]
        rows += [TiltSet.single(m, sign * STEP) for m in Mirror for sign in (1, -1)]
        cold = []
        for tilts in rows:
            clear_engine_caches()
            cold.append(detector_field_numeric(scenario, tilts).amplitude)
        clear_engine_caches()
        weak_value_report(scenario)
        for tilts, expected in zip(rows, cold):
            assert np.array_equal(detector_field_numeric(scenario, tilts).amplitude, expected)

    def test_detector_field_reuses_the_pre_f_steps(self, monkeypatch):
        # before-F traces the outer prefix and E's and the inner mirrors' steps on both
        # arms; the detector field then adds only the F steps, the reference prefix and C.
        calls = propagations(monkeypatch)
        scenario = replace(load_preset("fig1c").scenario, distances=UNEQUAL_INNER_ARMS)
        tilts = TiltSet((3e-7, -2e-7, 4e-7, -5e-7, 1e-7))
        clear_engine_caches()
        field_before_F(scenario, tilts)
        assert len(calls) == 5
        detector_field_numeric(scenario, tilts)
        assert len(calls) == 5 + 4

    def test_a_tilt_at_c_reuses_the_outer_traces_only(self):
        scenario = replace(load_preset("fig1c").scenario, distances=UNEQUAL_INNER_ARMS)
        first = TiltSet((3e-7, -2e-7, 4e-7, -5e-7, 1e-7))
        second = with_value(first, Mirror.C, -4e-7)
        clear_engine_caches()
        cold = detector_field_numeric(scenario, second).amplitude
        clear_engine_caches()
        detector_field_numeric(scenario, first)
        warm = detector_field_numeric(scenario, second).amplitude
        info = _trace.cache_info()
        assert (info.misses, info.hits) == (8, 2)  # 7 steps; then EAF and EBF hit, C misses
        assert np.array_equal(warm, cold)

    def test_retained_memory_is_bounded_by_the_cache_sizes(self):
        # Every fresh scenario misses the prefix caches; what stays after the
        # calls is at most the cached rows, plus 1 MiB for keys and small objects.
        base = load_preset("fig1c").scenario
        grid = TransverseGrid(n=4096, half_width=base.grid.half_width)
        tilts = TiltSet.single(Mirror.E, STEP)
        clear_engine_caches()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for i in range(40):
                detector_field_numeric(replace(base, grid=grid, path_length=2.0 + 0.01 * i), tilts)
            weak_value_report(replace(base, grid=grid, path_length=3.0))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held < CACHED_ROWS * grid.n * 16 + 2**20


def tilt_columns(seed, count, scale=3e-7):
    """count random tilt sets as (count,) columns per mirror, with entry 0 untilted."""
    rows = np.random.default_rng(seed).uniform(-scale, scale, size=(count, len(Mirror)))
    rows[0] = 0.0
    columns = {mirror: rows[:, i] for i, mirror in enumerate(Mirror)}
    return columns, [TiltSet(row.tolist()) for row in rows]


class TestFoldPaths:
    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_columns_walk_each_tilt_set_alone(self, preset_name):
        # The walk over (T,) columns gives, at each entry, the walk at that tilt set, bitwise.
        scenario = load_preset(preset_name).scenario
        columns, singles = tilt_columns(7, 5)
        batch = _fold_paths(scenario, columns)
        for r, tilts in enumerate(singles):
            for (a, s, theta, phi), one in zip(batch, _fold_paths(scenario, tilts)):
                assert (a, s[r], theta[r], phi[r]) == one

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_zero_columns_give_the_untilted_field(self, preset_name):
        scenario = load_preset(preset_name).scenario
        paths = _fold_paths(scenario, {mirror: np.zeros(3) for mirror in Mirror})
        xs, k, c = scenario.grid.xs, scenario.beam.k, scenario.curvature
        peak = gaussian_profile(0.0, scenario.beam, scenario.path_length)
        untilted = detector_field_numeric(scenario, TiltSet()).amplitude
        for r in range(3):
            row = peak * sum(a * np.exp(c * (xs - s[r]) ** 2 + 1j * (k * theta[r] * xs + phi[r]))
                             for a, s, theta, phi in paths)
            assert np.abs(row - untilted).max() <= 1e-13 * np.abs(untilted).max()

    def test_one_non_finite_tilt_raises_guard(self, dove):
        columns, _ = tilt_columns(3, 4)
        columns[Mirror.E][2] = np.nan
        with pytest.raises(GuardError, match="not finite"):
            _fold_paths(dove, columns)

    def test_widest_accepted_grid_stays_finite_and_exact(self):
        # The regime's corner on the widest grid: the engines agree there, and the
        # dither's moments hold on this grid too.
        scenario = widest_scenario()
        beam, length = scenario.beam, scenario.path_length
        alpha = 1e-2 / (beam.k * beam.w0)
        for angles in alpha * CORNERS:
            check_small_angle_regime(scenario, TiltSet(angles.tolist()))
        assert_engines_agree(scenario, alpha * CORNERS, tolerance=1e-13)
        moments = _moments(scenario.grid, beam, length)
        assert moments is not None and np.isfinite(moments).all()
        protocol = DitherProtocol(
            amplitudes=MirrorTable((alpha,) * len(Mirror), "amp"),
            frequencies=MirrorTable(FAST_FREQS), sample_rate=4000.0, duration=0.25,
        )
        series = run_dither(scenario, protocol)[::100]
        loop = np.array([
            split_signal(detector_field_numeric(scenario, tilts_at(protocol, t)))
            for t in protocol.times()[::100]
        ])
        assert np.abs(series - loop).max() <= 1e-12 * np.abs(loop).max()

    @pytest.mark.parametrize("kaw", KAWS[1:])
    def test_widest_accepted_grid_agrees_past_the_regime(self, kaw):
        # Each mirror alone past the regime: a walk-off of about a waist over 8192 waists,
        # which no e^{beta x} form survives, while Re c (x - s)^2 <= 0 keeps the fold finite.
        # Not the corners: three ramps added up at k alpha w0 = 2 reach the numeric
        # engine's band edge, and its field, not the fold, is then off by 2e-6.
        beam = default_beam()
        assert_engines_agree(widest_scenario(), kaw / (beam.k * beam.w0) * np.eye(len(Mirror)))

    def test_widest_accepted_grid_corners_past_the_regime(self):
        # The case the test above leaves out. Where three ramps add up on one path, the
        # numeric engine's spectrum reaches its band edge (its field would be off by 2.1e-6
        # of its peak), and propagate refuses it; the exact fold still gives its field.
        # The corner whose ramps do not add up stays inside the band, and the engines agree.
        beam, scenario = default_beam(), widest_scenario()
        rows = 2.0 / (beam.k * beam.w0) * CORNERS
        for angles in rows[[0, 1, 3]]:
            tilts = TiltSet(angles.tolist())
            with pytest.raises(AliasingError, match="spectrum edge .* exceeds 1e-08 of peak"):
                detector_field_numeric(scenario, tilts)
            assert np.isfinite(detector_field_analytic(scenario, tilts).amplitude).all()
        assert_engines_agree(scenario, rows[[2]])
