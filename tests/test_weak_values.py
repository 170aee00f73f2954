import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    ConfigError,
    Dove,
    GuardError,
    Mirror,
    MirrorTable,
    OutputPort,
    PathState,
    PostSelectionError,
    TwoStateVector,
    default_scenario,
    effective_weak_value,
    load_preset,
    paper_two_state_vector,
    path_projector,
    two_state_vector_for_port,
    weak_value,
    weak_value_report,
)
from conftest import with_value

EXPECTED_BRIGHT = {
    Mirror.A: 1.0,
    Mirror.B: -1.0,
    Mirror.C: 1.0,
    Mirror.E: 0.0,
    Mirror.F: 0.0,
}


def random_tsv(seed: int) -> TwoStateVector:
    rng = np.random.default_rng(seed)
    vecs = []
    for _ in range(2):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = v / np.linalg.norm(v)
        vecs.append(v)
    assume(abs(np.dot(vecs[1], vecs[0])) > 1e-6)
    return TwoStateVector(
        pre=PathState(tuple(vecs[0])), post=PathState(tuple(vecs[1]))
    )


class TestTwoStateVector:
    def test_paper_overlap(self):
        assert paper_two_state_vector().overlap == pytest.approx(1 / 3, abs=1e-15)

    def test_path_state_requires_normalization(self):
        with pytest.raises(ConfigError):
            PathState((1.0, 1.0, 1.0))

    def test_orthogonal_selection_rejected(self):
        with pytest.raises(PostSelectionError):
            TwoStateVector(pre=PathState((1, 0, 0)), post=PathState((0, 1, 0)))

    def test_alternate_port_overlap(self):
        tsv = two_state_vector_for_port(OutputPort.ALTERNATE_INNER_PORT)
        assert tsv.overlap == pytest.approx(1 / 3, abs=1e-15)


class TestWeakValue:
    def test_identity_operator(self):
        assert weak_value(paper_two_state_vector(), np.eye(3)) == pytest.approx(1.0)

    @pytest.mark.parametrize("mirror,expected", list(EXPECTED_BRIGHT.items()))
    def test_paper_projectors(self, mirror, expected):
        value = weak_value(paper_two_state_vector(), path_projector(mirror))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_projectors_resolve_identity(self):
        tsv = paper_two_state_vector()
        total = sum(weak_value(tsv, path_projector(m)) for m in (Mirror.A, Mirror.B, Mirror.C))
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_outer_projectors_are_inner_sums(self):
        tsv = paper_two_state_vector()
        inner_sum = weak_value(tsv, path_projector(Mirror.A) + path_projector(Mirror.B))
        assert weak_value(tsv, path_projector(Mirror.E)) == inner_sum
        assert weak_value(tsv, path_projector(Mirror.F)) == inner_sum

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_operator(self, value):
        op = path_projector(Mirror.A)
        op[1, 1] = value
        with pytest.raises(ConfigError, match="operator must be finite"):
            weak_value(paper_two_state_vector(), op)

    def test_a_weak_value_past_float64_raises_guard(self):
        # Each entry is finite; <Phi|op|Psi> = 1e308, divided by the overlap 1/3, is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GuardError, match="weak value .* overflows float64"):
                weak_value(paper_two_state_vector(), np.diag([1e308, -1e308, 1e308]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigError):
            weak_value(paper_two_state_vector(), np.eye(2))
        # A state over other than three paths never reaches weak_value's matmul.
        for amplitudes in [(1.0,), (0.6, 0.8, 0.0, 0.0)]:
            with pytest.raises(ConfigError, match="one amplitude per path"):
                PathState(amplitudes)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), op_seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, seed, op_seed):
        tsv = random_tsv(seed)
        rng = np.random.default_rng(op_seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        combined = weak_value(tsv, a + b)
        separate = weak_value(tsv, a) + weak_value(tsv, b)
        assert combined == pytest.approx(separate, abs=1e-12 * max(1.0, abs(separate)))

    def test_alternate_port_projectors(self):
        tsv = two_state_vector_for_port(OutputPort.ALTERNATE_INNER_PORT)
        values = {m: weak_value(tsv, path_projector(m)) for m in Mirror}
        assert values[Mirror.A] == pytest.approx(1.0, abs=1e-12)
        assert values[Mirror.B] == pytest.approx(1.0, abs=1e-12)
        assert values[Mirror.C] == pytest.approx(-1.0, abs=1e-12)
        assert values[Mirror.E] == pytest.approx(2.0, abs=1e-12)
        assert values[Mirror.F] == pytest.approx(2.0, abs=1e-12)


class TestEffectiveWeakValues:
    def test_no_dove_e_vanishes(self):
        scenario = default_scenario()
        assert abs(effective_weak_value(scenario, Mirror.E)) < 1e-2

    def test_dove_e_reads_minus_two(self):
        scenario = default_scenario(dove=Dove.BEFORE)
        assert effective_weak_value(scenario, Mirror.E) == pytest.approx(-2.0, abs=1e-2)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_a_reads_plus_one_with_prisms_before(self, enabled):
        scenario = default_scenario(dove=Dove.BEFORE if enabled else Dove.OFF)
        assert effective_weak_value(scenario, Mirror.A) == pytest.approx(1.0, abs=1e-2)

    def test_underflowing_difference_scale_rejected(self):
        # 2 * alpha_step * z_F underflows to 0 for a subnormal z_F.
        scenario = replace(default_scenario(), distances=MirrorTable((1.0, 1.0, 1.0, 1.5, 5e-324)))
        with pytest.raises(ConfigError, match="z_F"):
            effective_weak_value(scenario, Mirror.F)
        # It does not underflow at 1e-300, but it is below 2^-52 grid_half_width, the centroid's
        # resolution, so the difference is rounding: alt-port read effective_F = 2e286 there.
        # On alt-port the bound falls at z_F = 1.76e-12; F's value is 2.
        alt_port = load_preset("alt-port").scenario

        def at(z_f):
            return replace(alt_port, distances=with_value(alt_port.distances, Mirror.F, z_f))

        for z_f in (1e-300, 1.7e-12):
            with pytest.raises(ConfigError, match=r"z_F = \S+ <= 3.55e-18"):
                effective_weak_value(at(z_f), Mirror.F)
        assert effective_weak_value(at(1.8e-12), Mirror.F) == pytest.approx(2.0, rel=1e-2)

    def test_inner_mirrors_track_projectors_with_prisms_before(self):
        scenario = default_scenario(dove=Dove.BEFORE)
        tsv = paper_two_state_vector()
        for mirror in (Mirror.A, Mirror.B, Mirror.C):
            projector_value = weak_value(tsv, path_projector(mirror)).real
            assert effective_weak_value(scenario, mirror) == pytest.approx(
                projector_value, abs=1e-2
            )


class TestWeakValueReport:
    def test_no_dove_report(self):
        report = weak_value_report(default_scenario())
        for mirror, expected in EXPECTED_BRIGHT.items():
            assert report.projector[mirror] == pytest.approx(expected, abs=1e-12)
            assert report.effective[mirror] == pytest.approx(expected, abs=1e-2)
        assert not report.dove_enabled

    def test_dove_leaves_projectors_bitwise_identical(self):
        plain = weak_value_report(default_scenario())
        dove = weak_value_report(default_scenario(dove=Dove.BEFORE))
        for mirror in Mirror:
            assert plain.projector[mirror] == dove.projector[mirror]  # exact
        assert dove.effective[Mirror.E] == pytest.approx(-2.0, abs=1e-2)
        assert dove.dove_enabled

    def test_dove_after_flips_a_only(self):
        report = weak_value_report(default_scenario(dove=Dove.AFTER))
        assert report.projector[Mirror.A] == pytest.approx(1.0, abs=1e-12)
        assert report.effective[Mirror.A] == pytest.approx(-1.0, abs=1e-2)
        assert report.effective[Mirror.E] == pytest.approx(-2.0, abs=1e-2)
        assert report.effective[Mirror.B] == pytest.approx(-1.0, abs=1e-2)
        assert report.effective[Mirror.C] == pytest.approx(1.0, abs=1e-2)
        assert abs(report.effective[Mirror.F]) < 1e-2

    def test_alt_port_converse(self):
        report = weak_value_report(load_preset("alt-port").scenario)
        assert report.projector[Mirror.E] == pytest.approx(2.0, abs=1e-12)
        assert abs(report.effective[Mirror.E]) < 1e-2

    def test_text_block(self):
        text = weak_value_report(default_scenario()).to_text()
        assert "projector_E = 0" in text
        assert "effective_A = " in text
        assert text.endswith("dove_enabled = false\n")
