"""Detector-plane observables and the dither-spectroscopy procedure.

The measured signal is the normalized split-detector difference, proportional
to the beam centroid for small displacements.  Every mirror oscillates at its
own frequency, an integer number of cycles over the window, so one real FFT
of the signal holds every mirror's lock-in amplitude in its own bin and the
noise floor in the others; a peak well above the noise floor at a mirror's
frequency is that mirror's trace.
The series reads the interferometer's fold from half-grid moments of the beam,
without building fields.  Photon counting is modeled on top of the signal:
sample_photons draws single-photon positions by inverse-transform sampling.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import Mirror, MirrorTable, Path, TiltSet
from .errors import ConfigError, GuardError
from .fields import GaussianSpec, TransverseField, TransverseGrid, _frozen, _integer
from .fields import _intensity, _positive, gaussian_profile
from .interferometer import Scenario, _fold_paths, check_small_angle_regime
from .interferometer import detector_field_analytic

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
#: Dither samples per chunk: the Horner pass's (2, 6, T) complex arrays take 192 KiB each,
#: whatever the grid.
_SAMPLE_CHUNK = 2**10
#: _moments' bound on |b w0| (run_dither's crest check), truncation and rounding gain.
_SERIES_RADIUS, _SERIES_TOLERANCE, _SERIES_GAIN = math.hypot(0.05, 0.2), 2.0**-60, 2.0**10
#: Photons sample_photons draws and places at once: its per-chunk temporaries
#: (bucket and cell indices, gathered knots) hold at most about 32 B x
#: _PHOTON_CHUNK, 2 MiB, however many photons the draw holds.
_PHOTON_CHUNK = 2**16
#: A draw is shared by one thread per this many photons, up to one per core:
#: a 1e5-photon draw by two, a 65,535-photon draw by one.
_SPLIT_MIN = 2**15
#: Cores this process may run on: the most threads a draw is shared by.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
#: Guide-table buckets per grid cell: 16 leaves under 1% of uniforms to a binary
#: search (4 left 3%) and places a 32K chunk fastest at the presets' grid, now
#: that a field's table is built once for all its draws.  The count is capped at
#: _MAX_BUCKETS, whose 8-byte cell indices take 2 MiB (4 buckets per cell on the
#: largest grid).
_BUCKETS_PER_CELL = 16
_MAX_BUCKETS = 2**18


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
def _moments(grid: TransverseGrid, beam: GaussianSpec, length: float) -> np.ndarray | None:
    """(M + 1, 3) moments sum_x w |G|^2 (x / w0)^m / m! and their bounds, or None past reach.

    G is the source Gaussian over length; w is _split_weights in column 0 and 1 in column 1,
    so sum_x w |G|^2 e^{b x} = sum_m mu_m (b w0)^m.  Column 2 holds nu_m = sum_x |G|^2 |x / w0|^m
    / m!: as |b w0| <= r, term m is at most t_m = r^m nu_m (_series_terms), whose ratios fall with
    m under |G|^2's decay.  M is _first_small_term at r = R = _SERIES_RADIUS (14 by default);
    run_dither applies the same test at each chunk's own radius.  None where sum_m t_m / t_0 at
    R, the Horner pass's rounding gain, passes _SERIES_GAIN: beams some 35 waists wide at the
    detector.
    """
    g = np.abs(gaussian_profile(grid.xs, beam, length)) ** 2
    halves = _split_weights(grid) * g
    power, scaled = np.ones(grid.n), grid.xs / beam.w0  # power is (x / w0)^m / m!
    moments = []
    while True:  # the gain test stops a slow series long before a power overflows
        moments.append((np.sum(halves * power), np.sum(g * power), np.sum(g * abs(power))))
        terms = _series_terms(np.array(moments), _SERIES_RADIUS)
        if not sum(terms) <= _SERIES_GAIN * terms[0]:
            return None
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
    the series over _moments (or each field split, past their reach).  Per chunk of samples, one
    Horner pass evaluates S at u = b w0 for all six pairs at once, from the degree that the
    chunk's own radius max |u| needs (_first_small_term, 9 at the presets' dither against M = 14);
    one reduction then adds the pair terms in order.  The crest must sit in the small-angle
    regime, within MAX_DITHER_WORK: then |Re b| <= 0.05 / w0, |Im b| <= 0.2 / w0, |u| <= R =
    _SERIES_RADIUS.
    """
    check_dither_work(scenario, protocol)
    check_small_angle_regime(scenario, protocol.amplitudes)
    moments = _moments(scenario.grid, scenario.beam, scenario.path_length)
    times = protocol.times()
    if moments is None:
        tilt_sets = map(TiltSet, zip(*protocol.tilts(times).values()))
        return np.array([split_signal(detector_field_analytic(scenario, t)) for t in tilt_sets])
    series, c, ik = np.empty(protocol.sample_count), scenario.curvature, 1j * scenario.beam.k
    p, q = np.triu_indices(len(Path))  # the pairs p <= q: (0, 0), (0, 1), ..., (2, 2)
    # Complex once, x + 0j, the values a real operand is cast to in every mixed ufunc call.
    weights, coefficients = np.where(p == q, 1.0, 2.0)[:, None] + 0j, moments[:, :2] + 0j
    for start in range(0, times.size, _SAMPLE_CHUNK):
        span = times[start : start + _SAMPLE_CHUNK]
        a, s, t, phi = map(np.array, zip(*_fold_paths(scenario, protocol.tilts(span))))
        amps, betas = a[:, None] * np.exp(c * s**2 + 1j * phi), ik * t - 2.0 * c * s
        u = (betas[p] + np.conj(betas[q])) * scenario.beam.w0
        radius = float(np.abs(u).max())
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

    Inverse-transform sampling on the grid's cumulative distribution, with
    each sample's probability spread uniformly over its cell, so the sample
    mean is an unbiased estimate of the centroid.  Reproducible per seed.

    The positions are bitwise np.interp(rng.random(count), cdf, edges) with
    rng = np.random.default_rng(seed), whatever the number of cores.  The
    draw is cut into chunks of _PHOTON_CHUNK // w photons and shared by w =
    min(_WORKERS, count // _SPLIT_MIN) threads, at least one: the caller and
    w - 1 shares run by _pool(), a concurrent.futures.ThreadPoolExecutor of one
    thread per extra core.  Each thread claims the next unclaimed chunk until
    none is left, advancing its own default_rng(seed) to the chunk's first
    photon with bit_generator.advance: Generator.random takes
    one 64-bit draw per double, so every chunk reads its part of the one
    stream of rng.random(count).  The uniforms go straight into the positions
    buffer and each chunk is placed in place through the field's one
    read-only _GuideTable of min(_BUCKETS_PER_CELL n, _MAX_BUCKETS) buckets,
    so the temporaries in flight stay near 2 MiB.  The table is built by the
    field's first draw, whatever its count, and kept for the next ones
    (_table).  A thread that is late or slow simply claims fewer chunks; the
    caller waits for every share and raises a helper's error.
    """
    count, seed = _integer(count, "photon count", 1), _integer(seed, "seed", 0)
    table = _table(weakref.ref(f))
    positions = np.empty(count)
    workers = max(1, min(_WORKERS, count // _SPLIT_MIN))
    step = _PHOTON_CHUNK // workers
    starts, claim = iter(range(0, count, step)), threading.Lock()

    def fill() -> None:
        rng, at = np.random.default_rng(seed), 0
        while True:
            with claim:
                lo = next(starts, None)
            if lo is None:
                return
            rng.bit_generator.advance(lo - at)
            chunk = positions[lo : lo + step]
            rng.random(out=chunk)
            table.place(chunk)
            at = lo + chunk.size

    helpers = [_pool().submit(fill) for _ in range(workers - 1)]
    fill()
    for helper in helpers:
        helper.result()  # raises a helper's error in the caller
    positions.flags.writeable = False
    sample = PhotonSample(positions=positions, seed=seed, count=count)
    del positions  # fill's closure, which a pool thread may still hold, lets go of the buffer
    return sample


#: The thread pool that runs the shares of shared draws: None until the first such draw.
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """_POOL, made on first use: a thread per extra core for the shares of draws."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            import concurrent.futures  # only a shared draw pays for the import

            _POOL = concurrent.futures.ThreadPoolExecutor(
                max(1, _WORKERS - 1), thread_name_prefix="sample_photons"
            )
        return _POOL


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads are gone, so the next shared draw makes one."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@lru_cache(maxsize=2)
def _table(field: weakref.ref) -> _GuideTable:
    """The _GuideTable of the field that field refers to, kept for the last two fields.

    Fields hash by identity, so the key is the field object, by weak reference: a dropped
    field is not kept alive.  At MAX_SAMPLES a field's knots and slopes take 1.5 MiB and its
    _MAX_BUCKETS cells 2 MiB, so the two entries hold at most 7 MiB.
    """
    f = field()
    weights, total = _intensity(f)  # a finite total: np.interp's exactness needs a finite cdf
    dx = f.grid.spacing
    edges = np.concatenate([f.grid.xs - 0.5 * dx, [f.grid.xs[-1] + 0.5 * dx]])
    cdf = np.concatenate([[0.0], np.cumsum(weights)]) / total
    return _GuideTable(cdf, edges, min(_BUCKETS_PER_CELL * f.grid.n, _MAX_BUCKETS))


class _GuideTable:
    """np.interp(u, cdf, edges) for uniforms u in [0, 1), bitwise, at O(1) per draw.

    cdf is non-decreasing from cdf[0] = 0.  slope[j] is np.interp's own (edges[j + 1] -
    edges[j]) / (cdf[j + 1] - cdf[j]); a flat run of the cdf divides by zero, and no draw
    lands in its cells.  [0, 1) is split into `buckets` equal buckets, a power of two so
    that floor(u * buckets) is exact.  Every u in a bucket that holds no knot cdf[k]
    lies in one cell j, the one holding the bucket's left edge, and takes
    np.interp's own arithmetic there: slope[j] * (u - cdf[j]) + edges[j], finite
    since the cell is wider than the bucket.  A bucket that holds a knot has
    cell -1 (bucket 0 holds cdf[0] = 0): its u (under 1% of them in a full
    table at the presets' grid) go through that arithmetic on the last cell,
    whose slope is 0, and then through np.interp itself.
    """

    def __init__(self, cdf: np.ndarray, edges: np.ndarray, buckets: int) -> None:
        with np.errstate(divide="ignore", over="ignore"):
            slope = np.diff(edges) / np.diff(cdf)
        self.slope = np.append(slope, 0.0)  # cell n: edges[-1] at or past cdf[-1]
        # Knots below each bucket bound b / buckets (np.searchsorted's count, the
        # first bound above knot c being floor(c * buckets) + 1): a bucket holds a
        # knot where the counts at its two bounds differ; otherwise its cell is
        # the last knot below it.
        first = (cdf * buckets).astype(np.intp) + 1
        below = np.cumsum(np.bincount(first, minlength=buckets + 2)[: buckets + 1])
        self.cell = np.where(below[1:] != below[:-1], -1, below[:-1] - 1)
        self.cdf, self.edges, self.buckets = cdf, edges, buckets

    def place(self, u: np.ndarray) -> None:
        """Overwrite the uniforms u with np.interp(u, cdf, edges)."""
        cdf, slope, edges = self.cdf, self.slope, self.edges
        cell = self.cell[(u * self.buckets).astype(np.intp)]
        hard = np.flatnonzero(cell < 0)
        near = u[hard]
        u -= cdf[cell]
        u *= slope[cell]
        u += edges[cell]
        u[hard] = np.interp(near, cdf, edges)


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
    photons_per_sample = _integer(photons_per_sample, "photons_per_sample", 1)
    if photons_per_sample > MAX_PHOTONS_PER_SAMPLE:
        raise ConfigError(
            f"photons_per_sample {photons_per_sample} exceeds the 64-bit bound"
            f" {MAX_PHOTONS_PER_SAMPLE}"
        )
    return photons_per_sample, _integer(seed, "seed", 0)


def default_protocol() -> DitherProtocol:
    return DitherProtocol()
