"""Detector-plane observables and the dither-spectroscopy procedure.

The measured signal is the normalized split-detector difference, proportional
to the beam centroid for small displacements.  Every mirror oscillates at its
own frequency, an integer number of cycles over the window, so one real FFT
of the signal holds every mirror's lock-in amplitude in its own bin and the
noise floor in the others; a peak well above the noise floor at a mirror's
frequency is that mirror's trace.
The series reads the interferometer's fold from half-grid moments of the beam,
without building fields.  Photon counting is modeled on top of the signal:
sample_photons draws single-photon positions as pixel counts on the grid's cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import Mirror, MirrorTable, Path, TiltSet
from .errors import ConfigError, GuardError
from .fields import GaussianSpec, TransverseField, TransverseGrid, _frozen, _integer
from .fields import _intensity, _positive, gaussian_profile
from .interferometer import Scenario, _fold_paths, check_small_angle_regime

#: A mirror leaves a trace where its dither peak exceeds this multiple of the noise floor.
PEAK_FACTOR = 5.0
#: Modeled detector dynamic range: the noise floor reported with a spectrum is
#: never taken below this fraction of the strongest dither peak, so that a
#: noiseless series still yields a meaningful absence threshold (PEAK_FACTOR
#: times the floor equals 1e-3 of the maximum peak).
DYNAMIC_RANGE_FLOOR = 2e-4

DEFAULT_DITHER_AMPLITUDE = 1e-6  # rad, keeps k*alpha*w0 = 1e-2 for the default beam
#: Dither frequencies (Hz) over A, B, C, E, F: integer cycles over the default
#: window and free of intermodulation collisions onto any signal bin up to
#: fifth order.
DEFAULT_FREQUENCIES = MirrorTable((307.0, 367.0, 433.0, 509.0, 577.0), "freq")
DEFAULT_SAMPLE_RATE = 10_000.0
DEFAULT_DURATION = 1.0
#: Bound on sample_count x grid_n, checked before anything is allocated; not the
#: work (O((sample_count + grid_n) M)), it caps the series at 2^24 samples (128 MiB).
MAX_DITHER_WORK = 2**32
#: Largest photons_per_sample: the binomial draw takes a 64-bit count.
MAX_PHOTONS_PER_SAMPLE = 2**63 - 1
#: Largest sample_photons count: the longest float64 array numpy can describe.
MAX_PHOTONS = np.iinfo(np.intp).max // 8
#: Dither samples per chunk: the Horner pass's (2, 6, T) complex arrays take 192 KiB each,
#: whatever the grid.
_SAMPLE_CHUNK = 2**10
#: _moments' bound on |b w0| (run_dither's crest check), truncation and rounding gain.
_SERIES_RADIUS, _SERIES_TOLERANCE, _SERIES_GAIN = math.hypot(0.05, 0.2), 2.0**-60, 2.0**10
#: Photons whose spread within their pixel sample_photons draws at once: its one
#: buffer of uniforms takes at most 8 B x _PHOTON_CHUNK, 512 KiB, however many
#: photons the draw holds.
_PHOTON_CHUNK = 2**16


@dataclass(frozen=True)
class DitherProtocol:
    """Per-mirror oscillation amplitudes (a TiltSet)/frequencies and the sampling window."""

    amplitudes: TiltSet = TiltSet((DEFAULT_DITHER_AMPLITUDE,) * len(Mirror), "amp")
    frequencies: MirrorTable = DEFAULT_FREQUENCIES
    sample_rate: float = DEFAULT_SAMPLE_RATE
    duration: float = DEFAULT_DURATION

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", TiltSet(self.amplitudes, "amp"))
        _positive(self.sample_rate, "sample_rate")
        _positive(self.duration, "duration")
        _whole(self.sample_rate * self.duration, "sample_rate * duration", 2)
        for mirror, freq, amp in zip(Mirror, self.frequencies, self.amplitudes):
            _positive(freq, f"freq_{mirror.value}")
            if amp < 0.0:
                raise ConfigError(f"amp_{mirror.value} must be >= 0")
            _whole(freq * self.duration, f"freq_{mirror.value} * duration", 1)
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

    def tilts(self, times: np.ndarray) -> dict[Mirror, np.ndarray]:
        """Each mirror's (T,) column of angles alpha_j(t) = A_j sin(2 pi f_j t) at times."""
        phase = 2.0 * math.pi * times
        return {
            m: a * np.sin(phase * f) for m, a, f in zip(Mirror, self.amplitudes, self.frequencies)
        }


def _whole(value: float, name: str, least: int) -> None:
    """ConfigError unless value is finite and within 1e-9 of an integer >= least."""
    if not (math.isfinite(value) and abs(value - round(value)) <= 1e-9 and round(value) >= least):
        raise ConfigError(f"{name} = {value!r} is not a whole number >= {least}")


@dataclass(frozen=True)
class SpectrumReport:
    """Complex dither-frequency amplitudes of the detector signal, per mirror."""

    frequencies: MirrorTable
    amplitudes: dict[Mirror, complex]
    noise_floor: float

    def magnitude(self, mirror: Mirror) -> float:
        return abs(self.amplitudes[mirror])

    def peak_mirrors(self) -> set[Mirror]:
        """Mirrors whose dither peak exceeds PEAK_FACTOR times the noise floor."""
        return {
            m for m in Mirror if self.magnitude(m) > PEAK_FACTOR * self.noise_floor
        }


@dataclass(frozen=True)
class PhotonSample:
    """Detection positions drawn from a field's intensity distribution.

    positions is frozen like a field's amplitude, by the same rule (fields._frozen).
    """

    positions: np.ndarray
    seed: int
    count: int

    def __post_init__(self) -> None:
        pos = _frozen(self.positions, np.float64)
        if pos.shape != (self.count,) or self.count < 1:
            raise ConfigError("positions must be a 1-D array of length count >= 1")
        object.__setattr__(self, "positions", pos)


def _split_weights(grid: TransverseGrid) -> np.ndarray:
    """The split detector's weight per sample: sign(x), 0 at the boundary sample.

    The x = 0 sample and the periodic boundary sample count to neither half,
    so the split signal is exactly antisymmetric under parity.
    """
    weights = np.sign(grid.xs)
    weights[0] = 0.0
    return weights


def split_signal(f: TransverseField) -> float:
    """Normalized split-detector difference (P_right - P_left) / P_total.

    One weighted sum over _split_weights, sum_x w |f|^2 / sum_x |f|^2.
    """
    intensity, total = _intensity(f)
    return float(np.sum(_split_weights(f.grid) * intensity) / total)


@lru_cache(maxsize=2)
def _moments(grid: TransverseGrid, beam: GaussianSpec, length: float, reach: float) -> np.ndarray:
    """(M + 1, 3) moments sum_x w |G|^2 (x / w0)^m / m! and their bounds, for |b w0| <= reach.

    G is the source Gaussian over length; w is _split_weights in column 0 and 1 in column 1,
    so sum_x w |G|^2 e^{b x} = sum_m mu_m (b w0)^m.  Column 2 holds nu_m = sum_x |G|^2 |x / w0|^m
    / m!: as |b w0| <= r, term m is at most t_m = r^m nu_m (_series_terms), whose ratios fall with
    m under |G|^2's decay.  M is _first_small_term at r = reach (14 at R = _SERIES_RADIUS by
    default).  GuardError where sum_m t_m / t_0 at reach, the rounding gain, passes _SERIES_GAIN.
    """
    g = np.abs(gaussian_profile(grid.xs, beam, length)) ** 2
    halves = _split_weights(grid) * g
    power, scaled = np.ones(grid.n), grid.xs / beam.w0  # power is (x / w0)^m / m!
    moments = []
    while True:  # the gain test stops a slow series long before a power overflows
        moments.append((np.sum(halves * power), np.sum(g * power), np.sum(g * abs(power))))
        terms = _series_terms(np.array(moments), reach)
        if not sum(terms) <= _SERIES_GAIN * terms[0]:
            gain = f"rounding gain {sum(terms) / terms[0]:.3g} at |b w0| <= {reach:.3g}"
            raise GuardError(f"the dither series' {gain} passes {_SERIES_GAIN:g}: beam too wide")
        if _first_small_term(terms) < len(terms):
            break
        power *= scaled / len(moments)
    moments = np.array(moments)
    moments.flags.writeable = False
    return moments


def _series_terms(moments: np.ndarray, radius: float) -> list[float]:
    """t_m = radius^m moments[m, 2]: bounds on the series' terms wherever |b w0| <= radius."""
    return [radius**m * nu for m, nu in enumerate(moments[:, 2].tolist())]


def _first_small_term(terms: list[float]) -> int:
    """First m >= 1 with t_m <= min(_SERIES_TOLERANCE t_0, t_{m-1} / 2); len(terms) if none."""
    for m in range(1, len(terms)):
        if terms[m] <= min(_SERIES_TOLERANCE * terms[0], terms[m - 1] / 2):
            return m
    return len(terms)


def run_dither(scenario: Scenario, protocol: DitherProtocol) -> np.ndarray:
    """Split-detector time series while every mirror oscillates at its frequency.

    Sample t is split_signal of the fold's field at alpha_j(t) = A_j sin(2 pi f_j t), G(x) sum_p
    A_p e^{beta_p x}, A_p = a_p e^{c s_p^2 + i phi_p}, beta_p = ik theta_p - 2 c s_p.  Its sums are
    Re sum_{p <= q} w_pq A_p conj(A_q) S(b), b = beta_p + conj(beta_q), w_pq = 2 for p != q, S
    the series over _moments, read at the reach of each chunk of samples: its radius max |u|,
    u = b w0, rounded up to a power of two (0 stays 0), at most R = _SERIES_RADIUS.  One Horner
    pass then evaluates S at u for all six pairs at once, from the degree that radius needs
    (_first_small_term, 9 at the presets' dither against M = 14 at R), and one reduction adds
    the pair terms in order.  The crest must sit in the small-angle regime, within MAX_DITHER_WORK:
    then |Re b| <= 0.05 / w0, |Im b| <= 0.2 / w0, |u| <= R.
    """
    check_dither_work(scenario, protocol)
    check_small_angle_regime(scenario, protocol.amplitudes)
    times = protocol.times()
    series, c, ik = np.empty(protocol.sample_count), scenario.curvature, 1j * scenario.beam.k
    p, q = np.triu_indices(len(Path))  # the pairs p <= q: (0, 0), (0, 1), ..., (2, 2)
    # Complex once, x + 0j, the values a real operand is cast to in every mixed ufunc call.
    weights = np.where(p == q, 1.0, 2.0)[:, None] + 0j
    for start in range(0, times.size, _SAMPLE_CHUNK):
        span = times[start : start + _SAMPLE_CHUNK]
        a, s, t, phi = map(np.array, zip(*_fold_paths(scenario, protocol.tilts(span))))
        amps, betas = a[:, None] * np.exp(c * s**2 + 1j * phi), ik * t - 2.0 * c * s
        u = (betas[p] + np.conj(betas[q])) * scenario.beam.w0
        radius = float(np.abs(u).max())
        reach = min(2.0 ** math.frexp(radius)[1], _SERIES_RADIUS) if radius else 0.0
        moments = _moments(scenario.grid, scenario.beam, scenario.path_length, reach)
        coefficients = moments[:, :2] + 0j
        degree = min(_first_small_term(_series_terms(moments, radius)), len(moments) - 1)
        horner = np.full((2, *u.shape), coefficients[degree, :, None, None])
        for mu in coefficients[degree - 1 :: -1]:
            horner *= u
            horner += mu[:, None, None]
        sums = (weights * amps[p] * np.conj(amps[q]) * horner).real.sum(axis=1)
        series[start : start + span.size] = sums[0] / sums[1]
    return series


def check_dither_work(scenario: Scenario, protocol: DitherProtocol) -> None:
    """Raise ConfigError where sample_count x grid_n passes MAX_DITHER_WORK."""
    work = protocol.sample_count * scenario.grid.n
    if work > MAX_DITHER_WORK:
        raise ConfigError(
            f"dither work sample_count {protocol.sample_count} x grid_n {scenario.grid.n}"
            f" = {work} exceeds the bound {MAX_DITHER_WORK}"
        )


def spectrum(series: np.ndarray, protocol: DitherProtocol) -> SpectrumReport:
    """Each mirror's lock-in amplitude, read from one real FFT of the signal.

    Mirror j's amplitude is (2/N) rfft(series)[b_j], its bin b_j = f_j * duration
    an integer: (2/N) sum_n series_n exp(-2 pi i b_j n / N), so a pure sinusoid
    A sin(2 pi f_j t) reports |amplitude_j| = A.  sample_rate > 4 f_max keeps
    every b_j inside the rfft.  The noise floor is the median magnitude of the
    other bins but DC, regularized from below by the detector dynamic range
    (DYNAMIC_RANGE_FLOOR of the top peak) and float64 epsilon, the signal's rounding level.
    A series that is not finite raises GuardError.
    """
    series = np.asarray(series, dtype=np.float64)
    count = protocol.sample_count
    if series.shape != (count,):
        raise ConfigError(
            f"series length {series.shape} does not match protocol samples ({count},)"
        )
    if not np.isfinite(series).all():
        raise GuardError("dither series is not finite; no spectrum taken")
    full = np.fft.rfft(series) * (2.0 / count)
    bins = [round(f * protocol.duration) for f in protocol.frequencies]
    magnitudes = np.abs(full)
    off = np.ones(full.shape, dtype=bool)
    off[0] = False  # DC carries the mean, not noise
    off[bins] = False
    noise = float(np.median(magnitudes[off]))
    floor = max(noise, DYNAMIC_RANGE_FLOOR * magnitudes[bins].max(), np.finfo(np.float64).eps)
    return SpectrumReport(
        frequencies=protocol.frequencies,
        amplitudes={m: complex(full[b]) for m, b in zip(Mirror, bins)},
        noise_floor=float(floor),
    )


def sample_photons(f: TransverseField, count: int, seed: int) -> PhotonSample:
    """Draw photon detection positions from the field's intensity distribution.

    The grid's cells are the pixels of a position-sensitive detector.  With
    rng = np.random.default_rng(seed), one rng.multinomial(count, p) gives the
    pixel counts, p_j = |f_j|^2 / sum |f|^2, and each photon then lands at its
    pixel's low edge plus dx rng.random().  So a photon lands in cell j with
    probability p_j, uniformly within the cell, and the sample mean is an
    unbiased estimate of the centroid.  Reproducible per seed.  The positions come
    grouped by pixel, in the grid's order, not in draw order.  The uniforms are
    drawn into one buffer of min(_PHOTON_CHUNK, count) doubles, reused for every
    chunk.  The multinomial costs O(n) per draw whatever the count: 0.015-0.03 ms
    on the presets' 1,024 cells, 0.9-1.9 ms at MAX_SAMPLES even for 10 photons
    (2-vCPU x86 host).  A count past MAX_PHOTONS raises ConfigError before the draw.
    """
    count, seed = _integer(count, "photon count", 1, MAX_PHOTONS), _integer(seed, "seed", 0)
    weights, total = _intensity(f)  # a finite, nonzero total: p sums to 1
    rng, dx = np.random.default_rng(seed), f.grid.spacing
    counts = rng.multinomial(count, weights / total)
    positions = np.repeat(f.grid.xs - 0.5 * dx, counts)
    buf = np.empty(min(_PHOTON_CHUNK, count))
    for lo in range(0, count, buf.size):
        chunk = positions[lo : lo + buf.size]
        spread = buf[: chunk.size]
        rng.random(out=spread)
        spread *= dx
        chunk += spread
    positions.flags.writeable = False
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
    drawing individual positions (sample_photons) and counting sides.  Every
    sample's count comes, in sample order, from one binomial draw on the one
    stream np.random.default_rng(seed), and the empirical split signal
    converges to the deterministic series as photons_per_sample grows.
    """
    photons_per_sample, seed = read_photon_stage(photons_per_sample, seed)
    series = run_dither(scenario, protocol)
    if not np.isfinite(series).all():
        raise GuardError("split-detector series is not finite; no photon counts drawn")
    p_right = np.clip(0.5 * (1.0 + series), 0.0, 1.0)
    counts = np.random.default_rng(seed).binomial(photons_per_sample, p_right)
    empirical = 2.0 * counts / photons_per_sample - 1.0
    return spectrum(empirical, protocol)


def read_photon_stage(photons_per_sample: object, seed: object) -> tuple[int, int]:
    """The photon stage's ints; ConfigError unless 1 <= photons_per_sample < 2**63, seed >= 0."""
    photons = _integer(photons_per_sample, "photons_per_sample", 1, MAX_PHOTONS_PER_SAMPLE)
    return photons, _integer(seed, "seed", 0)


def default_protocol() -> DitherProtocol:
    return DitherProtocol()
