"""Sampled 1-D transverse optical fields.

Construction, spectral (paraxial Fresnel) propagation, intensity moments and
parity decomposition for complex scalar amplitudes on a uniform symmetric
grid.  All values are immutable; every operation is a pure function returning
a new field, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AliasingError, ConfigError, GridMismatchError, GuardError, ZeroNormError

# Anti-aliasing guard: amplitude in the outer 5% of the grid (|x| > 0.95 W)
# must stay below 1e-8 of the field peak.
EDGE_BAND = 0.05
EDGE_RATIO = 1e-8

MIN_SAMPLES = 256
MIN_KW0 = 100.0  # paraxial validity bound on k * w0
ZERO_POWER = 1e-30


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform grid of n samples covering [-half_width, half_width).

    Sample i sits at (i - n/2) * spacing, so x = 0 is a sample and the grid
    maps onto itself under x -> -x (the i = 0 boundary sample is its own
    image under the periodic identification of +/- half_width).  n must be a
    power of two for the spectral propagator.
    """

    n: int
    half_width: float

    def __post_init__(self) -> None:
        if self.n < MIN_SAMPLES or (self.n & (self.n - 1)) != 0:
            raise ConfigError(
                f"grid n must be a power of two >= {MIN_SAMPLES}, got {self.n}"
            )
        if not 0.0 < self.half_width < math.inf:
            raise ConfigError(
                f"grid half_width must be positive and finite, got {self.half_width}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @cached_property
    def xs(self) -> np.ndarray:
        x = (np.arange(self.n) - self.n // 2) * self.spacing
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class GaussianSpec:
    """Symmetric Gaussian input mode, amplitude proportional to exp(-x^2/w0^2)."""

    w0: float
    wavelength: float

    def __post_init__(self) -> None:
        if not 0.0 < self.w0 < math.inf:
            raise ConfigError(f"waist w0 must be positive and finite, got {self.w0}")
        if not 0.0 < self.wavelength < math.inf:
            raise ConfigError(f"wavelength must be positive and finite, got {self.wavelength}")
        if not math.isfinite(self.k):
            raise ConfigError(f"wavenumber k = 2*pi/wavelength overflows at {self.wavelength!r}")
        if self.k * self.w0 < MIN_KW0:
            raise ConfigError(
                f"k*w0 = {self.k * self.w0:.3g} is below the paraxial bound {MIN_KW0:g}"
            )

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        return 0.5 * self.k * self.w0**2


@dataclass(frozen=True)
class TransverseField:
    """Complex amplitude samples on a grid, with the optical wavenumber k.

    The amplitude buffer is copied on construction and frozen, so fields can
    be shared freely between threads.
    """

    grid: TransverseGrid
    amplitude: np.ndarray
    k: float

    def __post_init__(self) -> None:
        amp = np.array(self.amplitude, dtype=np.complex128, copy=True)
        if amp.shape != (self.grid.n,):
            raise ConfigError(
                f"amplitude shape {amp.shape} does not match grid n = {self.grid.n}"
            )
        if not self.k > 0.0:
            raise ConfigError(f"wavenumber k must be positive, got {self.k}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitude", amp)


def power(f: TransverseField) -> float:
    """Total intensity integral of |f|^2 over the grid."""
    a = f.amplitude
    return float(np.sum(a.real**2 + a.imag**2) * f.grid.spacing)


def norm(f: TransverseField) -> float:
    """L2 norm of the field."""
    return math.sqrt(power(f))


def make_gaussian(spec: GaussianSpec, grid: TransverseGrid) -> TransverseField:
    """Prepare the normalized even Gaussian mode exp(-x^2/w0^2) on the grid.

    The grid must extend to at least 8 waists so the edge guard band carries
    no meaningful amplitude.
    """
    if grid.half_width < 8.0 * spec.w0:
        raise ConfigError(
            f"grid too narrow: half_width {grid.half_width:g} m < 8*w0 = {8 * spec.w0:g} m"
        )
    amp = np.exp(-(grid.xs**2) / spec.w0**2).astype(np.complex128)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * grid.spacing))
    return TransverseField(grid, amp, spec.k)


def gaussian_profile(
    xs: np.ndarray, spec: GaussianSpec, distance: float
) -> np.ndarray:
    """Closed-form paraxial Gaussian amplitude after free propagation.

    Evaluates the unit-norm beam (waist at distance 0) at transverse
    positions xs, using the complex beam parameter q = 1 + i z / z_R with
    z_R = k w0^2 / 2.  Phase factors common to all propagation distances
    (exp(ikz)) are dropped, matching the spectral propagator below.
    """
    q = 1.0 + 1j * distance / spec.rayleigh_range
    peak = (2.0 / (math.pi * spec.w0**2)) ** 0.25
    return peak / np.sqrt(q) * np.exp(-(xs**2) / (spec.w0**2 * q))


@lru_cache(maxsize=256)
def _transfer_function(grid: TransverseGrid, k: float, z: float) -> np.ndarray:
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.n, grid.spacing)
    # A phase that overflows gives nan here; _check_edges reports it as a
    # GuardError, so numpy's warnings would only add lines to stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.exp(-0.5j * kx * kx * z / k)
    h.flags.writeable = False
    return h


def propagate(f: TransverseField, z: float) -> TransverseField:
    """Free-space propagation over distance z via the Fresnel transfer function.

    Exact and unitary for band-limited sampled fields.  Raises AliasingError
    if the propagated amplitude reaches the grid's edge guard band.
    """
    if z < 0.0:
        raise ConfigError(f"propagation distance must be >= 0, got {z}")
    spectrum = np.fft.fft(f.amplitude)
    out = np.fft.ifft(spectrum * _transfer_function(f.grid, f.k, z))
    result = TransverseField(f.grid, out, f.k)
    _check_edges(result)
    return result


def _check_edges(f: TransverseField) -> None:
    mag = np.abs(f.amplitude)
    peak = float(mag.max())
    if peak == 0.0:
        return
    if not math.isfinite(peak):
        raise GuardError(f"propagated field is not finite (peak {peak!r})")
    edge = np.abs(f.grid.xs) > (1.0 - EDGE_BAND) * f.grid.half_width
    worst = float(mag[edge].max())
    if worst > EDGE_RATIO * peak:
        raise AliasingError(
            f"edge amplitude {worst:.3g} exceeds {EDGE_RATIO:g} of peak {peak:.3g}"
        )


def parity_x(f: TransverseField) -> TransverseField:
    """Reflect the field about the optical axis: amplitude(x) -> amplitude(-x).

    Pure sample permutation on the symmetric grid (index i -> (n - i) mod n),
    hence an exact involution.
    """
    flipped = np.roll(f.amplitude[::-1], 1)
    return TransverseField(f.grid, flipped, f.k)


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


def centroid(f: TransverseField) -> float:
    """Intensity centroid <x> of the field, by midpoint rule on the grid."""
    a = f.amplitude
    intensity = a.real**2 + a.imag**2
    total = float(np.sum(intensity) * f.grid.spacing)
    if total < ZERO_POWER:
        raise ZeroNormError(f"total power {total:.3g} below {ZERO_POWER:g}")
    return float(np.sum(f.grid.xs * intensity) * f.grid.spacing / total)


def momentum_centroid(f: TransverseField) -> float:
    """Mean transverse spatial frequency <k_x> from the discrete spectral power."""
    spectrum = np.fft.fft(f.amplitude)
    p = spectrum.real**2 + spectrum.imag**2
    total = float(np.sum(p))
    if total * f.grid.spacing / f.grid.n < ZERO_POWER:
        raise ZeroNormError("zero-power field has no momentum centroid")
    kx = 2.0 * math.pi * np.fft.fftfreq(f.grid.n, f.grid.spacing)
    return float(np.sum(kx * p) / total)
