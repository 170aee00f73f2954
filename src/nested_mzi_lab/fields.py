"""Sampled 1-D transverse optical fields.

Construction, spectral (paraxial Fresnel) propagation, parity and the
intensity centroid for complex scalar amplitudes on a uniform symmetric
grid, plus the closed-form Gaussian profile and the edge guard that both
engines apply.  All values are immutable; every operation is a pure function
returning a new field, so everything here is safe to evaluate concurrently.
Arrays are frozen with numpy's read-only flag, which stops in-place writes but
not a holder who sets it back (on the array, or on a view's .base): buffers are
shared and cached safely only because no code in this package re-enables it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AliasingError, ConfigError, GuardError, ZeroNormError

# Anti-aliasing guard: amplitude in the outer 5% of the grid (|x| > 0.95 W), and
# the spectrum in the outer 5% of its band, must stay below 1e-8 of their peaks.
EDGE_BAND = 0.05
EDGE_RATIO = 1e-8

MIN_SAMPLES = 256
#: Largest grid: at this bound one row of complex samples takes 1 MiB, and the
#: engine's caches (16 transfer functions, 2 + 2 prefixes, 28 traced steps) keep up to 48 rows.
MAX_SAMPLES = 2**16
#: Waist sampling bound: the grid spacing is at most w0 / MIN_WAIST_SAMPLES, so
#: the mode's spectrum has fallen below 1e-17 of its peak at the Nyquist edge.
MIN_WAIST_SAMPLES = 4
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
        object.__setattr__(self, "n", _integer(self.n, "grid n"))
        if self.n < MIN_SAMPLES or (self.n & (self.n - 1)) != 0:
            raise ConfigError(
                f"grid n must be a power of two >= {MIN_SAMPLES}, got {self.n}"
            )
        if self.n > MAX_SAMPLES:
            raise ConfigError(f"grid n = {self.n} exceeds the bound {MAX_SAMPLES}")
        _positive(self.half_width, "grid half_width")
        if not self.half_width * self.half_width < math.inf:
            raise ConfigError(f"grid half_width {self.half_width!r} overflows when squared")
        if not 0.0 < self.spacing < math.inf:
            raise ConfigError(f"grid spacing 2*half_width/n = {self.spacing!r} is not positive")

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
        _positive(self.w0, "waist w0")
        if not self.w0 * self.w0 > 0.0:
            raise ConfigError(f"waist w0 = {self.w0!r} underflows when squared")
        _positive(self.wavelength, "wavelength")
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


@dataclass(frozen=True, eq=False)
class TransverseField:
    """Complex amplitude samples on a grid, with the optical wavenumber k.

    amplitude has shape (n,).  It is frozen, so fields can be shared freely
    between threads: a read-only complex128 array that owns its data is kept
    as it is, and any other buffer (a writeable array, a view) is copied.
    The read-only flag is the whole freeze: a holder who sets it back writes to
    every field sharing the buffer, cached prefixes included; this package never does.
    Fields compare and hash by identity, so a field can key a cache (detection._table).
    """

    grid: TransverseGrid
    amplitude: np.ndarray
    k: float

    def __post_init__(self) -> None:
        amp = _frozen(self.amplitude, np.complex128)
        if amp.shape != (self.grid.n,):
            raise ConfigError(
                f"amplitude shape {amp.shape} does not match grid n = {self.grid.n} as (n,)"
            )
        _positive(self.k, "wavenumber k")
        object.__setattr__(self, "amplitude", amp)


def _frozen(values: object, dtype: type) -> np.ndarray:
    """values if a read-only dtype array that owns its data, else a frozen dtype copy."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    return values


def _integer(value: object, name: str, least: float = -math.inf) -> int:
    """value as a Python int (operator.index); ConfigError for anything not an integer >= least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value


def _positive(value: float, name: str) -> None:
    """ConfigError unless value is a positive finite number (nan, -0.0 and inf fail)."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


def power(f: TransverseField) -> float:
    """Total intensity integral of |f|^2 over the grid; GuardError where it is not finite."""
    value = _finite_intensity(f)[1] * f.grid.spacing
    if not math.isfinite(value):  # a finite sum times a wide grid's spacing
        raise GuardError(f"field power {value!r} overflows float64")
    return value


def make_gaussian(spec: GaussianSpec, grid: TransverseGrid) -> TransverseField:
    """Prepare the normalized even Gaussian mode exp(-x^2/w0^2) on the grid.

    The grid must pass check_sampling.
    """
    check_sampling(spec, grid)
    amp = np.exp(-(grid.xs**2) / spec.w0**2).astype(np.complex128)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * grid.spacing))
    amp.flags.writeable = False
    return TransverseField(grid, amp, spec.k)


def check_sampling(spec: GaussianSpec, grid: TransverseGrid) -> None:
    """Raise ConfigError unless the grid holds the mode.

    The grid must extend to at least 8 waists so the edge guard band carries
    no meaningful amplitude, and its spacing must not exceed
    w0 / MIN_WAIST_SAMPLES.
    """
    if grid.half_width < 8.0 * spec.w0:
        raise ConfigError(
            f"grid too narrow: half_width {grid.half_width:g} m < 8*w0 = {8 * spec.w0:g} m"
        )
    if grid.spacing > spec.w0 / MIN_WAIST_SAMPLES:
        raise ConfigError(
            f"grid too coarse: spacing {grid.spacing:g} m > w0/{MIN_WAIST_SAMPLES}"
            f" = {spec.w0 / MIN_WAIST_SAMPLES:g} m"
        )


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


@lru_cache(maxsize=16)  # a scenario's at most 10 distances, with room for a second
def _transfer_function(grid: TransverseGrid, k: float, z: float) -> np.ndarray:
    """exp(-i kx^2 z / 2k) in FFT order, exponentiated over kx >= 0 and mirrored.

    It is even in kx, and -j * f is exactly -(j * f) in floats, so the exponent at
    each negative frequency equals that at its mirror: rfftfreq's last entry, +n/2,
    stands for the Nyquist entry -n/2 as well.
    """
    kx = 2.0 * math.pi * np.fft.rfftfreq(grid.n, grid.spacing)
    # A phase that overflows gives nan here; check_edges reports it as a
    # GuardError, so numpy's warnings would only add lines to stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(-0.5j * kx * kx * z / k)
    h = np.concatenate((half, half[-2:0:-1]))
    h.flags.writeable = False
    return h


def propagate(f: TransverseField, z: float) -> TransverseField:
    """Free-space propagation over distance z via the Fresnel transfer function.

    Exact and unitary for band-limited sampled fields.  check_edges judges two guard
    bands, each read as slices: the spectrum's middle EDGE_BAND of the FFT order (nearest
    Nyquist, where a tilt ramp's spectrum wraps), then the propagated amplitude's two
    ends, |x| > (1 - EDGE_BAND) half_width.
    """
    if z < 0.0:
        raise ConfigError(f"propagation distance {z} is negative")
    spectrum, mid = np.fft.fft(f.amplitude), f.grid.n // 2
    mag, width = np.abs(spectrum), round(EDGE_BAND * mid)
    check_edges(float(mag.max()), float(mag[mid - width : mid + width].max()), "spectrum edge")
    out = np.fft.ifft(spectrum * _transfer_function(f.grid, f.k, z))
    mag, inner = np.abs(out), math.floor((1.0 - EDGE_BAND) * mid)  # the band: |i - mid| > inner
    ends = np.maximum(mag[: mid - inner].max(), mag[mid + inner + 1 :].max())
    check_edges(float(mag.max()), float(ends))
    out.flags.writeable = False
    return TransverseField(f.grid, out, f.k)


def check_edges(peak: float, worst: float, band: str = "edge amplitude") -> None:
    """The package's one edge rule, on the largest magnitude, peak, and the largest in the
    guard band, worst, named band in the messages.  A non-finite value raises GuardError,
    and worst above EDGE_RATIO * peak raises AliasingError (a zero peak passes: worst <= peak).
    """
    if not (math.isfinite(peak) and math.isfinite(worst)):
        raise GuardError(f"field is not finite (peak {peak!r}, {band} {worst!r})")
    if worst > EDGE_RATIO * peak:
        raise AliasingError(f"{band} {worst:.3g} exceeds {EDGE_RATIO:g} of peak {peak:.3g}")


def parity_x(f: TransverseField) -> TransverseField:
    """Reflect the field about the optical axis: amplitude(x) -> amplitude(-x).

    Pure sample permutation on the symmetric grid (index i -> (n - i) mod n),
    hence an exact involution.
    """
    a = f.amplitude
    out = np.concatenate((a[:1], a[:0:-1]))  # a fresh buffer, unlike np.roll's view
    out.flags.writeable = False
    return TransverseField(f.grid, out, f.k)


def _finite_intensity(f: TransverseField) -> tuple[np.ndarray, float]:
    """|amplitude|^2 per sample and its sum; GuardError where the sum is not finite."""
    a = f.amplitude
    with np.errstate(over="ignore"):  # a square past float64 is inf, which the guard reports
        intensity = a.real**2 + a.imag**2
        total = float(np.sum(intensity))
    if not math.isfinite(total):
        raise GuardError(f"field intensity sums to {total!r}; the field is not finite")
    return intensity, total


def _intensity(f: TransverseField) -> tuple[np.ndarray, float]:
    """_finite_intensity, and ZeroNormError where the power is below ZERO_POWER."""
    intensity, total = _finite_intensity(f)
    if total * f.grid.spacing < ZERO_POWER:
        raise ZeroNormError(f"total power {total * f.grid.spacing:.3g} below {ZERO_POWER:g}")
    return intensity, total


def centroid(f: TransverseField) -> float:
    """Intensity centroid <x> of the field, by midpoint rule on the grid.

    GuardError where the moment is not finite: a finite intensity near float64's
    top far from the axis overflows it.
    """
    intensity, total = _intensity(f)
    dx = f.grid.spacing
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, which the guard reports
        value = float(np.sum(f.grid.xs * intensity) * dx / (total * dx))
    if not math.isfinite(value):
        raise GuardError(f"intensity centroid is {value!r}; its moment overflows float64")
    return value

