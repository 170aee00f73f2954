import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    ConfigError,
    GuardError,
    Mirror,
    MirrorTable,
    OutputPort,
    Path,
    RegimeError,
    TiltSet,
    TransverseField,
    TransverseGrid,
    apply_dove_x,
    apply_tilt,
    centroid,
    make_gaussian,
    port_amplitudes,
    propagate,
)
from conftest import momentum_centroid, norm, random_field


class TestApplyTilt:
    def test_zero_angle_is_identity(self, grid, beam):
        f = make_gaussian(beam, grid)
        assert np.array_equal(apply_tilt(f, 0.0).amplitude, f.amplitude)

    def test_centroid_unchanged_at_element_plane(self, grid, beam):
        f = make_gaussian(beam, grid)
        assert abs(centroid(apply_tilt(f, 20e-6)) - centroid(f)) < 1e-12

    def test_momentum_kick(self, grid, beam):
        alpha = 15e-6
        f = apply_tilt(make_gaussian(beam, grid), alpha)
        assert momentum_centroid(f) == pytest.approx(beam.k * alpha, rel=1e-3)

    def test_angle_guard(self, grid, beam):
        with pytest.raises(RegimeError):
            apply_tilt(make_gaussian(beam, grid), 1.5e-3)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a1=st.floats(-4e-4, 4e-4),
        a2=st.floats(-4e-4, 4e-4),
    )
    def test_tilts_compose_additively(self, grid, beam, seed, a1, a2):
        f = random_field(grid, beam, seed)
        chained = apply_tilt(apply_tilt(f, a1), a2)
        direct = apply_tilt(f, a1 + a2)
        assert np.max(np.abs(chained.amplitude - direct.amplitude)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(-9e-4, 9e-4))
    def test_norm_preserved(self, grid, beam, seed, alpha):
        f = random_field(grid, beam, seed)
        assert abs(norm(apply_tilt(f, alpha)) - norm(f)) < 1e-12


def full_grid_tilt(f: TransverseField, alpha: float) -> np.ndarray:
    """The tilted amplitude with the ramp exponentiated at every sample, the reference
    for apply_tilt's mirror."""
    return f.amplitude * np.exp(1j * f.k * alpha * f.grid.xs)


#: Subnormal and tiny tilts, down to where k * alpha * x rounds to a signed zero.
TINY_TILTS = st.sampled_from([5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, -1e-30])


class TestHalfGridTilt:
    @settings(max_examples=80, deadline=None)
    @given(
        log_n=st.integers(8, 13),
        half_width=st.floats(1e-4, 10.0),
        k=st.floats(1e4, 1e8),
        alpha=st.one_of(st.floats(-9.99e-4, 9.99e-4), TINY_TILTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mirror_is_the_full_grid_bitwise(self, log_n, half_width, k, alpha, seed):
        grid = TransverseGrid(n=2**log_n, half_width=half_width)
        rng = np.random.default_rng(seed)
        f = TransverseField(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n), k)
        assert apply_tilt(f, alpha).amplitude.tobytes() == full_grid_tilt(f, alpha).tobytes()

    def test_a_non_finite_phase_raises_guard(self):
        # k alpha x overflows past |x| ~ 2e3 m at k = 1e308: the ramp is nan there, with no
        # numpy warning, and the next propagation's edge guard reports it.
        grid = TransverseGrid(n=256, half_width=1e10)
        f = TransverseField(grid, np.exp(-((grid.xs / 1e9) ** 2)), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tilted = apply_tilt(f, 9e-4)
            assert np.isnan(tilted.amplitude).any()
            with pytest.raises(GuardError, match="field is not finite"):
                propagate(tilted, 0.0)


class TestApplyDove:
    def test_aligned_gaussian_unchanged(self, grid, beam):
        f = make_gaussian(beam, grid)
        assert np.max(np.abs(apply_dove_x(f).amplitude - f.amplitude)) < 1e-12

    def test_momentum_reversed(self, grid, beam):
        alpha = 12e-6
        f = apply_tilt(make_gaussian(beam, grid), alpha)
        assert momentum_centroid(apply_dove_x(f)) == pytest.approx(
            -beam.k * alpha, rel=1e-3
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_involution(self, grid, beam, seed):
        f = random_field(grid, beam, seed)
        assert np.array_equal(apply_dove_x(apply_dove_x(f)).amplitude, f.amplitude)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(-9e-4, 9e-4))
    def test_parity_tilt_commutation(self, grid, beam, seed, alpha):
        # The relation the whole instrument hinges on:
        # dove o tilt(alpha) == tilt(-alpha) o dove.
        f = random_field(grid, beam, seed)
        lhs = apply_dove_x(apply_tilt(f, alpha))
        rhs = apply_tilt(apply_dove_x(f), -alpha)
        assert np.max(np.abs(lhs.amplitude - rhs.amplitude)) < 1e-12


class TestPortAmplitudes:
    def test_values(self):
        r = 1.0 / math.sqrt(3.0)
        bright = port_amplitudes(OutputPort.BRIGHT)
        assert bright[Path.EAF] == pytest.approx(r)
        assert bright[Path.EBF] == pytest.approx(-r)
        assert bright[Path.C] == pytest.approx(r)
        alternate = port_amplitudes(OutputPort.ALTERNATE_INNER_PORT)
        assert alternate[Path.EAF] == pytest.approx(r)
        assert alternate[Path.EBF] == pytest.approx(r)
        assert alternate[Path.C] == pytest.approx(-r)

    @pytest.mark.parametrize("port", list(OutputPort))
    def test_total_probability(self, port):
        amps = port_amplitudes(port)
        assert sum(amps[p] ** 2 for p in Path) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("port", list(OutputPort))
    def test_magnitudes_round_to_one_over_sqrt3(self, port):
        # Output bytes depend on the last bit of every path amplitude.
        assert {abs(a) for a in port_amplitudes(port).values()} == {1.0 / math.sqrt(3.0)}


class TestMirrorTable:
    def test_indexed_by_mirror_in_enum_order(self):
        table = MirrorTable((1.0, 2.0, 3.0, 4.0, 5.0))
        assert [table[m] for m in Mirror] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(table.items()) == list(zip(Mirror, (1.0, 2.0, 3.0, 4.0, 5.0)))

    def test_values_are_python_floats(self):
        table = MirrorTable(np.arange(5.0))
        assert all(type(v) is float for v in table)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError, match="z_C"):
            MirrorTable((1.0, 1.0, bad, 1.5, 0.5), "z")

    def test_one_value_per_mirror(self):
        with pytest.raises(ConfigError):
            MirrorTable((1.0, 2.0))


class TestTiltSet:
    def test_defaults_are_aligned(self):
        assert all(v == 0.0 for v in TiltSet())

    def test_paraxial_guard(self):
        with pytest.raises(ConfigError):
            TiltSet.single(Mirror.E, 1e-3)

    def test_single(self):
        t = TiltSet.single(Mirror.E, 5e-5)
        assert t[Mirror.E] == 5e-5
        assert t[Mirror.A] == 0.0
