import math

import numpy as np
import pytest
from hypothesis import settings

from nested_mzi_lab import (
    ConfigError,
    DitherProtocol,
    Dove,
    GaussianSpec,
    MirrorTable,
    Scenario,
    TiltSet,
    TransverseField,
    TransverseGrid,
    ZeroNormError,
    default_beam,
    default_grid,
)
from nested_mzi_lab.fields import ZERO_POWER, power

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


def tilts_at(protocol: DitherProtocol, t: float) -> TiltSet:
    """The protocol's tilt set at one time t: alpha_j(t) = A_j sin(2 pi f_j t)."""
    phase = 2.0 * math.pi * t
    pairs = zip(protocol.amplitudes, protocol.frequencies)
    return TiltSet(a * math.sin(phase * f) for a, f in pairs)


def with_value(table: MirrorTable, mirror, value: float, *name: str) -> MirrorTable:
    """Copy of a per-mirror table with one mirror's entry changed, and its key prefix name."""
    return type(table)((value if m is mirror else v for m, v in table.items()), *name)


#: Signs that add up the walk-offs of the widest grid's paths.
CORNERS = np.array([[1, 1, 1, -1, 1], [-1, -1, -1, 1, -1], [1, -1, 1, 1, 1], [1, 1, -1, -1, -1]])


def widest_scenario():
    """The fold's largest exponent: the largest grid and half width, L = z_R (where the
    walk-off weighs most against the beam) and every z near L, prisms in."""
    beam = default_beam()
    length = beam.rayleigh_range
    return Scenario(
        distances=MirrorTable(length * f for f in (0.999, 0.999, 1.0, 1.0, 0.998)),
        path_length=length,
        beam=beam,
        grid=TransverseGrid(n=65536, half_width=8192 * beam.w0),
        dove=Dove.BEFORE,
    )


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


# Field functions only the tests use: parity parts, overlaps and the mean
# transverse momentum, checks on the engines' building blocks.


def norm(f: TransverseField) -> float:
    """L2 norm of the field."""
    return math.sqrt(power(f))


class GridMismatchError(ConfigError):
    """Two fields live on different transverse grids."""


def decompose_parity(f: TransverseField) -> tuple[TransverseField, TransverseField]:
    """Split a field into its even and odd parts about x = 0.

    even + odd reconstructs f exactly and the two parts are orthogonal.
    """
    mirrored = np.roll(f.amplitude[::-1], 1)
    even = TransverseField(f.grid, 0.5 * (f.amplitude + mirrored), f.k)
    odd = TransverseField(f.grid, 0.5 * (f.amplitude - mirrored), f.k)
    return even, odd


def inner_product(f: TransverseField, g: TransverseField) -> complex:
    """Discrete L2 inner product <f, g>, conjugate-linear in the first argument."""
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")
    return complex(np.sum(np.conj(f.amplitude) * g.amplitude) * f.grid.spacing)


def momentum_centroid(f: TransverseField) -> float:
    """Mean transverse spatial frequency <k_x> from the discrete spectral power."""
    spectrum = np.fft.fft(f.amplitude)
    p = spectrum.real**2 + spectrum.imag**2
    total = float(np.sum(p))
    if total * f.grid.spacing / f.grid.n < ZERO_POWER:
        raise ZeroNormError("zero-power field has no momentum centroid")
    kx = 2.0 * math.pi * np.fft.fftfreq(f.grid.n, f.grid.spacing)
    return float(np.sum(kx * p) / total)
