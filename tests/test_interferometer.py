import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    ConfigError,
    Dove,
    Mirror,
    OutputPort,
    RegimeError,
    TiltBlock,
    TiltSet,
    TransverseField,
    alpha_step,
    centroid,
    default_beam,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    field_before_F,
    gaussian_profile,
    load_preset,
    norm,
    power,
    PRESET_NAMES,
)
from conftest import with_value

W0 = default_beam().w0
STEP = alpha_step(default_beam())


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

    def test_regime_violation_raises(self, bright):
        with pytest.raises(RegimeError):
            detector_field_analytic(bright, TiltSet.single(Mirror.E, 5e-5))


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
        # Outside the first-order regime only the numeric engine is valid;
        # the residual is recorded without a pass/fail threshold.
        f = detector_field_numeric(bright, TiltSet.single(Mirror.E, 5e-4))
        residual = centroid(f)
        assert math.isfinite(residual)
        print(f"second-order centroid residual at alpha_E=5e-4: {residual:.3e} m")

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
        # Each arm still travels z_E - stop_z in all; a shared E-to-inner
        # step reused across unequal distances would break the cancellation.
        z = with_value(with_value(bright.distances, Mirror.A, z_a), Mirror.B, z_b)
        scenario = replace(bright, distances=z)
        assert power(field_before_F(scenario, TiltSet())) < 1e-12
        block = TiltBlock(np.zeros((len(Mirror), 2)))
        assert np.abs(field_before_F(scenario, block).amplitude).max() < 1e-10


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


def tilt_rows(seed, count, scale=3e-7):
    """count random tilt sets, one per row, with row 0 untilted."""
    rows = np.random.default_rng(seed).uniform(-scale, scale, size=(count, len(Mirror)))
    rows[0] = 0.0
    return rows


def row_tilts(rows):
    return TiltBlock(rows.T), [TiltSet(row.tolist()) for row in rows]


class TestTiltBlocks:
    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_block_equals_one_field_calls_row_by_row(self, preset_name):
        scenario = load_preset(preset_name).scenario
        block, singles = row_tilts(tilt_rows(7, 5))
        batch = detector_field_numeric(scenario, block).amplitude
        assert batch.shape == (5, scenario.grid.n)
        for row, tilts in zip(batch, singles):
            assert np.array_equal(row, detector_field_numeric(scenario, tilts).amplitude)

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_all_zero_block_broadcasts_the_untilted_field(self, preset_name):
        scenario = load_preset(preset_name).scenario
        block = TiltBlock(np.zeros((len(Mirror), 3)))
        batch = detector_field_numeric(scenario, block).amplitude
        untilted = detector_field_numeric(scenario, TiltSet()).amplitude
        assert batch.shape == (3, scenario.grid.n)
        assert all(np.array_equal(row, untilted) for row in batch)

    def test_field_before_f_block_row_by_row(self, dove):
        block, singles = row_tilts(tilt_rows(3, 4))
        batch = field_before_F(dove, block).amplitude
        for row, tilts in zip(batch, singles):
            assert np.array_equal(row, field_before_F(dove, tilts).amplitude)

    def test_one_out_of_range_entry_raises_regime_error(self, dove):
        rows = tilt_rows(5, 4)
        rows[2, 3] = 2e-3  # mirror E, beyond MAX_TILT
        with pytest.raises(RegimeError, match="0.002"):
            detector_field_numeric(dove, TiltBlock(rows.T))

    def test_ragged_columns_rejected(self):
        with pytest.raises(ConfigError):
            TiltBlock([np.zeros(3)] * 4 + [np.zeros(2)])
        with pytest.raises(ConfigError):
            TiltBlock([np.zeros(3)] * 4)
