import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    AliasingError,
    ConfigError,
    GaussianSpec,
    GridMismatchError,
    GuardError,
    TransverseField,
    TransverseGrid,
    ZeroNormError,
    centroid,
    decompose_parity,
    inner_product,
    make_gaussian,
    momentum_centroid,
    norm,
    parity_x,
    power,
    propagate,
    sample_photons,
)
from nested_mzi_lab.cli import write_field_csv
from conftest import random_field


def normalized(grid, amp, k):
    amp = np.asarray(amp, dtype=complex)
    scale = math.sqrt(float(np.sum(np.abs(amp) ** 2) * grid.spacing))
    return TransverseField(grid, amp / scale, k)


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

    @pytest.mark.parametrize("half_width", [1e308, 1e300, 5e-324])
    def test_grid_rejects_overflowing_or_vanishing_extent(self, half_width):
        # 1e308: the spacing overflows; 1e300: x**2 does; 5e-324: the spacing is 0.
        with pytest.raises(ConfigError):
            TransverseGrid(n=1024, half_width=half_width)

    def test_spec_rejects_nonparaxial_waist(self):
        with pytest.raises(ConfigError):
            GaussianSpec(w0=5e-6, wavelength=633e-9)  # k*w0 < 100


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


def gaussian_rows(grid, beam, shifts):
    """(len(shifts), n) block of unit Gaussians centred at each shift."""
    return np.stack([
        np.exp(-((grid.xs - d) ** 2) / beam.w0**2) for d in shifts
    ]).astype(complex)


class TestFieldBlocks:
    def test_block_propagates_row_by_row_bitwise(self, grid, beam):
        rows = np.stack([random_field(grid, beam, seed).amplitude for seed in range(5)])
        block = propagate(TransverseField(grid, rows, beam.k), 0.7)
        assert block.amplitude.shape == (5, grid.n)
        for row, amp in zip(block.amplitude, rows):
            assert np.array_equal(row, propagate(TransverseField(grid, amp, beam.k), 0.7).amplitude)

    def test_block_parity_row_by_row(self, grid, beam):
        rows = np.stack([random_field(grid, beam, seed).amplitude for seed in range(3)])
        flipped = parity_x(TransverseField(grid, rows, beam.k)).amplitude
        for row, amp in zip(flipped, rows):
            assert np.array_equal(row, parity_x(TransverseField(grid, amp, beam.k)).amplitude)

    def test_one_row_at_the_edge_raises_aliasing(self, grid, beam):
        amp = gaussian_rows(grid, beam, [0.0, 0.0, grid.half_width - 2 * beam.w0])
        with pytest.raises(AliasingError):
            propagate(TransverseField(grid, amp, beam.k), 0.0)

    def test_one_non_finite_row_raises_guard(self, grid, beam):
        amp = gaussian_rows(grid, beam, [0.0, 0.0, 0.0])
        amp[1, grid.n // 2] = np.nan
        with pytest.raises(GuardError, match="not finite"):
            propagate(TransverseField(grid, amp, beam.k), 0.0)

    def test_zero_peak_row_is_skipped(self, grid, beam):
        amp = gaussian_rows(grid, beam, [0.0, 0.0])
        amp[0] = 0.0
        out = propagate(TransverseField(grid, amp, beam.k), 0.5)
        assert not out.amplitude[0].any()
        assert np.abs(out.amplitude[1]).max() > 0.1

    def test_bad_shapes_rejected(self, grid, beam):
        for shape in [(grid.n + 1,), (0, grid.n), (2, 2, grid.n), ()]:
            with pytest.raises(ConfigError):
                TransverseField(grid, np.zeros(shape), beam.k)

    @pytest.mark.parametrize(
        "reduce",
        [
            lambda f, tmp: power(f),
            lambda f, tmp: norm(f),
            lambda f, tmp: centroid(f),
            lambda f, tmp: momentum_centroid(f),
            lambda f, tmp: inner_product(f, f),
            lambda f, tmp: sample_photons(f, 10, seed=1),
            lambda f, tmp: write_field_csv(tmp / "field.csv", f),
        ],
        ids=[
            "power", "norm", "centroid", "momentum_centroid", "inner_product",
            "sample_photons", "write_field_csv",
        ],
    )
    def test_reductions_refuse_a_block(self, grid, beam, tmp_path, reduce):
        block = TransverseField(grid, gaussian_rows(grid, beam, [0.0, 1e-4]), beam.k)
        with pytest.raises(ConfigError, match="block of 2 rows"):
            reduce(block, tmp_path)
        assert not list(tmp_path.iterdir())
