"""Detector-plane observables and the dither-spectroscopy procedure.

The measured signal is the normalized split-detector difference, proportional
to the beam centroid for small displacements.  Every mirror oscillates at its
own frequency; a lock-in style single-bin Fourier projection of the signal at
each dither frequency recovers the per-mirror response amplitudes, and a peak
well above the noise floor at a mirror's frequency is that mirror's trace.
The series is traced in blocks of consecutive samples: one numeric-engine
call per block, over (T, n) field rows, each row bitwise the field of its
sample alone.  Photon-counting acquisition is modeled on top of the
deterministic signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import Mirror, MirrorTable, TiltBlock, TiltSet
from .errors import ConfigError, GuardError, ZeroNormError
from .fields import TransverseField, ZERO_POWER, _one_row
from .interferometer import Scenario, check_small_angle_regime, detector_field_numeric

#: Modeled detector dynamic range: the noise floor reported with a spectrum is
#: never taken below this fraction of the strongest dither peak, so that a
#: noiseless series still yields a meaningful absence threshold (5x the floor
#: equals 1e-3 of the maximum peak).
DYNAMIC_RANGE_FLOOR = 2e-4

DEFAULT_DITHER_AMPLITUDE = 1e-6  # rad, keeps k*alpha*w0 = 1e-2 for the default beam
#: Dither frequencies (Hz) over A, B, C, E, F: integer cycles over the default
#: window and free of intermodulation collisions onto any signal bin up to
#: fifth order.
DEFAULT_FREQUENCIES = MirrorTable((307.0, 367.0, 433.0, 509.0, 577.0), "freq")
DEFAULT_SAMPLE_RATE = 10_000.0
DEFAULT_DURATION = 1.0
#: Work bound on one dither run, in field samples (sample_count x grid_n):
#: checked before anything is allocated.  The default run is 1e4 x 1024,
#: about 1e7, so the bound leaves some 400x headroom.
MAX_DITHER_WORK = 2**32
#: Largest photons_per_sample: the binomial draw takes a 64-bit count.
MAX_PHOTONS_PER_SAMPLE = 2**63 - 1
#: Time samples traced per numeric-engine call.  Larger blocks save little
#: more time, since the FFTs and phase ramps dominate by then, and every
#: (T, n) field of a call holds T * n * 16 bytes.
_BLOCK = 8


@dataclass(frozen=True)
class DitherProtocol:
    """Per-mirror oscillation amplitudes/frequencies and the sampling window."""

    amplitudes: MirrorTable = MirrorTable((DEFAULT_DITHER_AMPLITUDE,) * len(Mirror), "amp")
    frequencies: MirrorTable = DEFAULT_FREQUENCIES
    sample_rate: float = DEFAULT_SAMPLE_RATE
    duration: float = DEFAULT_DURATION

    def __post_init__(self) -> None:
        if not (0.0 < self.sample_rate < math.inf and 0.0 < self.duration < math.inf):
            raise ConfigError("sample_rate and duration must be positive and finite")
        count = self.sample_rate * self.duration
        if not math.isfinite(count):
            raise ConfigError(f"sample_rate * duration overflows, got {count!r}")
        if abs(count - round(count)) > 1e-9 or round(count) < 2:
            raise ConfigError(
                f"sample_rate * duration must be an integer >= 2, got {count!r}"
            )
        for mirror, freq, amp in zip(Mirror, self.frequencies, self.amplitudes):
            if freq <= 0.0:
                raise ConfigError(f"freq_{mirror.value} must be positive")
            if amp < 0.0:
                raise ConfigError(f"amp_{mirror.value} must be >= 0")
            cycles = freq * self.duration
            if not math.isfinite(cycles):
                raise ConfigError(f"freq_{mirror.value} * duration overflows, got {cycles!r}")
            if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
                raise ConfigError(
                    f"freq_{mirror.value} = {freq:g} Hz is not an integer "
                    f"number (>= 1) of cycles over {self.duration:g} s"
                )
        if len(set(self.frequencies)) != len(Mirror):
            raise ConfigError("dither frequencies must be pairwise distinct")
        # Checked ahead of the harmonic test, whose frequency ratios it keeps finite.
        if self.sample_rate <= 4.0 * max(self.frequencies):
            raise ConfigError("sample_rate must exceed 4x the highest dither frequency")
        resolution = 1.0 / self.duration
        ordered = sorted(self.frequencies)
        for i, low in enumerate(ordered):
            for high in ordered[i + 1 :]:
                harmonic = round(high / low)
                if harmonic >= 2 and abs(high - harmonic * low) < resolution:
                    raise ConfigError(
                        f"frequencies {low:g} and {high:g} Hz are harmonically "
                        "related within the spectral resolution"
                    )

    @property
    def sample_count(self) -> int:
        return round(self.sample_rate * self.duration)

    def times(self) -> np.ndarray:
        return np.arange(self.sample_count) / self.sample_rate

    def tilts_at(self, t: float) -> TiltSet:
        """The tilt set at one time t: alpha_j(t) = A_j sin(2 pi f_j t)."""
        phase = 2.0 * math.pi * t
        return TiltSet(a * math.sin(phase * f) for a, f in zip(self.amplitudes, self.frequencies))

    def tilts(self, times: np.ndarray) -> TiltBlock:
        """The tilt sets at each of times, one row per time (tilts_at, row by row)."""
        phase = 2.0 * math.pi * times
        return TiltBlock(a * np.sin(phase * f) for a, f in zip(self.amplitudes, self.frequencies))


@dataclass(frozen=True)
class SpectrumReport:
    """Complex dither-frequency amplitudes of the detector signal, per mirror."""

    frequencies: MirrorTable
    amplitudes: dict[Mirror, complex]
    noise_floor: float

    def magnitude(self, mirror: Mirror) -> float:
        return abs(self.amplitudes[mirror])

    def peak_mirrors(self, factor: float = 5.0) -> set[Mirror]:
        """Mirrors whose dither peak exceeds factor times the noise floor."""
        return {
            m for m in Mirror if self.magnitude(m) > factor * self.noise_floor
        }


@dataclass(frozen=True)
class PhotonSample:
    """Detection positions drawn from a field's intensity distribution."""

    positions: np.ndarray
    seed: int
    count: int

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=np.float64, copy=True)
        if pos.shape != (self.count,) or self.count < 1:
            raise ConfigError("positions must be a 1-D array of length count >= 1")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


def split_signal(f: TransverseField) -> float | np.ndarray:
    """Normalized split-detector difference (P_right - P_left) / P_total.

    The x = 0 sample and the periodic boundary sample are split evenly
    between the halves, so the signal is exactly antisymmetric under parity.
    One field gives a float; a (T, n) block gives the (T,) signal of its rows.
    """
    a = f.amplitude
    intensity = a.real**2 + a.imag**2
    mid = f.grid.n // 2
    right = np.sum(intensity[..., mid + 1 :], axis=-1)
    left = np.sum(intensity[..., 1:mid], axis=-1)
    total = right + left + intensity[..., 0] + intensity[..., mid]
    if np.count_nonzero(total * f.grid.spacing < ZERO_POWER):
        raise ZeroNormError("zero-power field has no split signal")
    signal = (right - left) / total
    return float(signal) if signal.ndim == 0 else signal


def run_dither(scenario: Scenario, protocol: DitherProtocol) -> np.ndarray:
    """Split-detector time series while every mirror oscillates at its frequency.

    Each time sample evaluates the numeric engine at the instantaneous tilt
    set alpha_j(t) = A_j sin(2 pi f_j t); consecutive samples are traced
    together, one block of rows per engine call.  The worst-case simultaneous
    crest must sit inside the small-angle regime, and sample_count x grid_n
    must not exceed MAX_DITHER_WORK.
    """
    work = protocol.sample_count * scenario.grid.n
    if work > MAX_DITHER_WORK:
        raise ConfigError(
            f"dither work sample_count {protocol.sample_count} x grid_n {scenario.grid.n}"
            f" = {work} exceeds the bound {MAX_DITHER_WORK}"
        )
    check_small_angle_regime(scenario, TiltSet(protocol.amplitudes))
    times = protocol.times()
    series = np.empty(protocol.sample_count)
    for start in range(0, times.size, _BLOCK):
        block = protocol.tilts(times[start : start + _BLOCK])
        series[start : start + _BLOCK] = split_signal(detector_field_numeric(scenario, block))
    return series


def spectrum(series: np.ndarray, protocol: DitherProtocol) -> SpectrumReport:
    """Single-bin Fourier projection of the signal at each dither frequency.

    amplitude_j = (2/T) * sum series(t) exp(-2 pi i f_j t) dt, so a pure
    sinusoid A sin(2 pi f_j t) reports |amplitude_j| = A.  The noise floor is
    the median off-bin magnitude of the full spectrum, regularized from below
    by the detector dynamic range (DYNAMIC_RANGE_FLOOR of the top peak).
    """
    series = np.asarray(series, dtype=np.float64)
    count = protocol.sample_count
    if series.shape != (count,):
        raise ConfigError(
            f"series length {series.shape} does not match protocol samples ({count},)"
        )
    times = protocol.times()
    amplitudes: dict[Mirror, complex] = {}
    for mirror, freq in protocol.frequencies.items():
        phase = np.exp(-2j * math.pi * freq * times)
        amplitudes[mirror] = complex(2.0 / count * np.sum(series * phase))
    full = np.abs(np.fft.rfft(series)) * (2.0 / count)
    signal_bins = {round(f * protocol.duration) for f in protocol.frequencies}
    mask = np.ones(full.shape, dtype=bool)
    mask[0] = False  # DC carries the mean, not noise
    for b in signal_bins:
        if b < full.size:
            mask[b] = False
    median_off = float(np.median(full[mask])) if mask.any() else 0.0
    top = max(abs(a) for a in amplitudes.values())
    floor = max(median_off, DYNAMIC_RANGE_FLOOR * top)
    return SpectrumReport(
        frequencies=protocol.frequencies,
        amplitudes=amplitudes,
        noise_floor=floor,
    )


def sample_photons(f: TransverseField, count: int, seed: int) -> PhotonSample:
    """Draw photon detection positions from the field's intensity distribution.

    Inverse-transform sampling on the grid's cumulative distribution, with
    each sample's probability spread uniformly over its cell, so the sample
    mean is an unbiased estimate of the centroid.  Reproducible per seed.
    """
    if count < 1:
        raise ConfigError(f"photon count must be >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    a = _one_row(f, "sample_photons")
    weights = a.real**2 + a.imag**2
    total = float(weights.sum())
    if total * f.grid.spacing < ZERO_POWER:
        raise ZeroNormError("cannot sample photons from a zero-power field")
    dx = f.grid.spacing
    edges = np.concatenate([f.grid.xs - 0.5 * dx, [f.grid.xs[-1] + 0.5 * dx]])
    cdf = np.concatenate([[0.0], np.cumsum(weights)]) / total
    rng = np.random.default_rng(seed)
    positions = np.interp(rng.random(count), cdf, edges)
    return PhotonSample(positions=positions, seed=seed, count=count)


def photon_dither_experiment(
    scenario: Scenario,
    protocol: DitherProtocol,
    photons_per_sample: int,
    seed: int,
) -> SpectrumReport:
    """Dither spectroscopy acquired photon by photon on the split detector.

    Per time sample, the number of right-half detections out of
    photons_per_sample follows the binomial law of the field's right-half
    probability; drawing that count directly is statistically identical to
    drawing individual positions (sample_photons) and counting sides.  Each
    time sample uses an independent, order-insensitive substream of the seed,
    and the empirical split signal converges to the deterministic series as
    photons_per_sample grows.
    """
    if photons_per_sample < 1:
        raise ConfigError(f"photons_per_sample must be >= 1, got {photons_per_sample}")
    if photons_per_sample > MAX_PHOTONS_PER_SAMPLE:
        raise ConfigError(
            f"photons_per_sample {photons_per_sample} exceeds the 64-bit bound"
            f" {MAX_PHOTONS_PER_SAMPLE}"
        )
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    series = run_dither(scenario, protocol)
    if not np.isfinite(series).all():
        raise GuardError("split-detector series is not finite; no photon counts drawn")
    p_right = np.clip(0.5 * (1.0 + series), 0.0, 1.0)
    counts = np.empty_like(series)
    for i, p in enumerate(p_right):
        rng = np.random.default_rng([seed, i])
        counts[i] = rng.binomial(photons_per_sample, p)
    empirical = 2.0 * counts / photons_per_sample - 1.0
    return spectrum(empirical, protocol)


def default_protocol() -> DitherProtocol:
    return DitherProtocol()
