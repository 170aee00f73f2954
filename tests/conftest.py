import numpy as np
import pytest
from hypothesis import settings

from nested_mzi_lab import (
    DitherProtocol,
    GaussianSpec,
    MirrorTable,
    TransverseField,
    TransverseGrid,
    default_beam,
    default_grid,
)

#: Selected with --hypothesis-profile=ci: every run draws the same examples.
settings.register_profile("ci", derandomize=True, database=None)

# Reduced dither protocol for unit tests: 1000 samples, 4 Hz bins, frequencies
# free of intermodulation collisions onto signal bins up to fifth order.
FAST_FREQS = (100.0, 128.0, 160.0, 264.0, 440.0)


@pytest.fixture(scope="session")
def grid() -> TransverseGrid:
    return default_grid()


@pytest.fixture(scope="session")
def beam() -> GaussianSpec:
    return default_beam()


@pytest.fixture(scope="session")
def fast_protocol() -> DitherProtocol:
    return DitherProtocol(
        frequencies=MirrorTable(FAST_FREQS), sample_rate=4000.0, duration=0.25
    )


def with_value(table: MirrorTable, mirror, value: float) -> MirrorTable:
    """Copy of a per-mirror table with one mirror's entry changed."""
    return type(table)(value if m is mirror else v for m, v in table.items())


def random_field(grid: TransverseGrid, beam: GaussianSpec, seed: int) -> TransverseField:
    """Smooth band-limited random field: low-order polynomial times a Gaussian."""
    rng = np.random.default_rng(seed)
    u = grid.xs / beam.w0
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    poly = sum(c * u**j for j, c in enumerate(coeffs))
    amp = poly * np.exp(-(u**2))
    scale = np.sqrt(np.sum(np.abs(amp) ** 2) * grid.spacing)
    if scale < 1e-12:  # pragma: no cover - essentially impossible draw
        amp = np.exp(-(u**2))
        scale = np.sqrt(np.sum(np.abs(amp) ** 2) * grid.spacing)
    return TransverseField(grid, amp / scale, beam.k)
