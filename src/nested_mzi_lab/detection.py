"""Detector-plane observables and the dither-spectroscopy procedure.

The measured signal is the normalized split-detector difference, proportional
to the beam centroid for small displacements.  Every mirror oscillates at its
own frequency, an integer number of cycles over the window, so one real FFT
of the signal holds every mirror's lock-in amplitude in its own bin and the
noise floor in the others; a peak well above the noise floor at a mirror's
frequency is that mirror's trace.
The series reads the interferometer's fold from half-grid moments of the beam,
without building fields.  Photon counting is modeled on top of the signal:
sample_photons draws single-photon positions by inverse-transform sampling,
placing each uniform draw through a guide table over [0, 1) in chunks of
bounded size, and returns bitwise what np.interp(u, cdf, edges) would.  A
large draw is shared by up to one thread per core: each thread claims the
next chunk and reads it from the seed's one PCG64 stream, advanced to the
chunk's first photon, so the positions are the same bits whatever the number
of cores or the order in which the threads ran.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import Mirror, MirrorTable, TiltSet
from .errors import ConfigError, GuardError
from .fields import GaussianSpec, TransverseField, TransverseGrid, _intensity, gaussian_profile
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
#: Dither samples per chunk: (2, T) temporaries under 0.1 MiB whatever the grid.
_SAMPLE_CHUNK = 2**10
#: _moments' bound on |b w0| (interferometer._fold_paths), truncation and rounding gain.
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
#: Guide-table buckets per grid cell; the table is also capped near the photon
#: count, so a small draw does not pay for a table larger than itself.
_BUCKETS_PER_CELL = 4


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

    def tilts(self, times: np.ndarray) -> dict[Mirror, np.ndarray]:
        """Each mirror's (T,) column of angles alpha_j(t) = A_j sin(2 pi f_j t) at times."""
        phase = 2.0 * math.pi * times
        return {
            m: a * np.sin(phase * f) for m, a, f in zip(Mirror, self.amplitudes, self.frequencies)
        }


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

    positions is frozen like a field's amplitude: a read-only float64 array
    that owns its data is kept as it is, and any other buffer is copied.
    """

    positions: np.ndarray
    seed: int
    count: int

    def __post_init__(self) -> None:
        pos = self.positions
        if not (isinstance(pos, np.ndarray) and pos.dtype == np.float64
                and pos.flags.owndata and not pos.flags.writeable):
            pos = np.array(pos, dtype=np.float64)
        if pos.shape != (self.count,) or self.count < 1:
            raise ConfigError("positions must be a 1-D array of length count >= 1")
        pos.flags.writeable = False
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
    """(M + 1, 2) moments sum_x w |G|^2 (x / w0)^m / m!, or None past the series' reach.

    G is the source Gaussian over length; w is _split_weights in column 0 and 1 in column 1,
    so sum_x w |G|^2 e^{b x} = sum_m mu_m (b w0)^m.  As |b w0| <= R = _SERIES_RADIUS, term m
    is at most t_m = R^m sum_x |G|^2 |x / w0|^m / m!, whose ratios fall with m under |G|^2's
    decay: M is the first m with t_m below _SERIES_TOLERANCE t_0 and t_{m-1} / 2 (14 by
    default).  None where sum_m t_m / t_0, the Horner pass's rounding gain,
    passes _SERIES_GAIN: beams some 35 waists wide at the detector.
    """
    g = np.abs(gaussian_profile(grid.xs, beam, length)) ** 2
    halves = _split_weights(grid) * g
    power, scaled = np.ones(grid.n), grid.xs / beam.w0  # power is (x / w0)^m / m!
    moments, terms = [], []
    while True:  # the gain test stops a slow series long before a power overflows
        moments.append((np.sum(halves * power), np.sum(g * power)))
        terms.append(_SERIES_RADIUS ** len(terms) * np.sum(g * abs(power)))
        if not sum(terms) <= _SERIES_GAIN * terms[0]:
            return None
        if len(terms) > 1 and terms[-1] <= min(_SERIES_TOLERANCE * terms[0], terms[-2] / 2):
            break
        power *= scaled / len(moments)
    moments = np.array(moments)
    moments.flags.writeable = False
    return moments


def run_dither(scenario: Scenario, protocol: DitherProtocol) -> np.ndarray:
    """Split-detector time series while every mirror oscillates at its frequency.

    Sample t is split_signal of the fold's field at alpha_j(t) = A_j sin(2 pi f_j t), whose
    sums are Re sum_{p <= q} w_pq A_p conj(A_q) S(beta_p + conj(beta_q)), A_p = a_p e^{gamma_p},
    w_pq = 2 for p != q, S a Horner pass over _moments (or each field split, past their
    reach).  The crest must sit in the small-angle regime, within MAX_DITHER_WORK.
    """
    work = protocol.sample_count * scenario.grid.n
    if work > MAX_DITHER_WORK:
        raise ConfigError(
            f"dither work sample_count {protocol.sample_count} x grid_n {scenario.grid.n}"
            f" = {work} exceeds the bound {MAX_DITHER_WORK}"
        )
    check_small_angle_regime(scenario, TiltSet(protocol.amplitudes, "amp"))
    moments = _moments(scenario.grid, scenario.beam, scenario.path_length)
    times = protocol.times()
    if moments is None:
        tilt_sets = map(TiltSet, zip(*protocol.tilts(times).values()))
        return np.array([split_signal(detector_field_analytic(scenario, t)) for t in tilt_sets])
    series = np.empty(protocol.sample_count)
    for start in range(0, times.size, _SAMPLE_CHUNK):
        span = times[start : start + _SAMPLE_CHUNK]
        paths = [(a * np.exp(g), b) for a, b, g in _fold_paths(scenario, protocol.tilts(span))]
        sums = 0.0
        for p, (ap, bp) in enumerate(paths):
            for q, (aq, bq) in enumerate(paths[p:], p):
                u = (bp + np.conj(bq)) * scenario.beam.w0
                pair = np.full((2, span.size), moments[-1][:, None], dtype=np.complex128)
                for mu in moments[-2::-1]:
                    pair *= u
                    pair += mu[:, None]
                sums = sums + ((1.0 if p == q else 2.0) * ap * np.conj(aq) * pair).real
        series[start : start + span.size] = sums[0] / sums[1]
    return series


def spectrum(series: np.ndarray, protocol: DitherProtocol) -> SpectrumReport:
    """Each mirror's lock-in amplitude, read from one real FFT of the signal.

    Mirror j's amplitude is (2/N) rfft(series)[b_j], its bin b_j = f_j * duration
    an integer: (2/N) sum_n series_n exp(-2 pi i b_j n / N), so a pure sinusoid
    A sin(2 pi f_j t) reports |amplitude_j| = A.  sample_rate > 4 f_max keeps
    every b_j inside the rfft.  The noise floor is the median magnitude of the
    other bins but DC, regularized from below by the detector dynamic range
    (DYNAMIC_RANGE_FLOOR of the top peak).
    """
    series = np.asarray(series, dtype=np.float64)
    count = protocol.sample_count
    if series.shape != (count,):
        raise ConfigError(
            f"series length {series.shape} does not match protocol samples ({count},)"
        )
    full = np.fft.rfft(series) * (2.0 / count)
    bins = [round(f * protocol.duration) for f in protocol.frequencies]
    magnitudes = np.abs(full)
    off = np.ones(full.shape, dtype=bool)
    off[0] = False  # DC carries the mean, not noise
    off[bins] = False
    floor = max(float(np.median(magnitudes[off])), DYNAMIC_RANGE_FLOOR * magnitudes[bins].max())
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
    w - 1 persistent helper threads.  Each thread claims the next unclaimed
    chunk until none is left, advancing its own default_rng(seed) to the
    chunk's first photon with bit_generator.advance: Generator.random takes
    one 64-bit draw per double, so every chunk reads its part of the one
    stream of rng.random(count).  The uniforms go straight into the positions
    buffer and each chunk is placed in place through one read-only
    _GuideTable of about min(count, 4 n) buckets, so the temporaries in
    flight stay near 2 MiB.  A thread that is late or slow simply claims
    fewer chunks; the caller waits for every helper and raises a helper's
    error.
    """
    if count < 1:
        raise ConfigError(f"photon count must be >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    weights, total = _intensity(f)
    if not math.isfinite(total):  # np.interp's exactness argument needs a finite cdf
        raise GuardError(f"field intensity sums to {total!r}; no photons drawn")
    dx = f.grid.spacing
    edges = np.concatenate([f.grid.xs - 0.5 * dx, [f.grid.xs[-1] + 0.5 * dx]])
    cdf = np.concatenate([[0.0], np.cumsum(weights)]) / total
    buckets = 1 << (min(count, _BUCKETS_PER_CELL * f.grid.n) - 1).bit_length()
    table = _GuideTable(cdf, edges, buckets)
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

    done = queue.SimpleQueue()
    for _ in range(workers - 1):
        _TASKS.put((fill, done))
    with _HELPERS_LOCK:  # concurrent draws start no more helpers than the largest needs
        while len(_HELPERS) < workers - 1:
            _HELPERS.append(threading.Thread(target=_serve, args=(_TASKS,), daemon=True))
            _HELPERS[-1].start()
    fill()
    for error in [done.get() for _ in range(workers - 1)]:
        if error is not None:
            raise error
    positions.flags.writeable = False
    return PhotonSample(positions=positions, seed=seed, count=count)


#: Shares of draws for the helpers, (fill, done) each, and the daemon threads
#: that take them: started as draws first need them, one per extra core.
_TASKS = queue.SimpleQueue()
_HELPERS: list[threading.Thread] = []
_HELPERS_LOCK = threading.Lock()


def _forget_helpers() -> None:
    """In a forked child, which has none of its parent's threads: start its own."""
    _HELPERS.clear()
    _HELPERS_LOCK.release()


if hasattr(os, "register_at_fork"):  # the lock is held across a fork, so no start is cut
    os.register_at_fork(
        before=_HELPERS_LOCK.acquire,
        after_in_parent=_HELPERS_LOCK.release,
        after_in_child=_forget_helpers,
    )


def _serve(tasks: queue.SimpleQueue) -> None:
    """A helper thread's loop: take a share of each draw and report None or the error."""
    while True:
        fill, done = tasks.get()
        error = None
        try:
            fill()
        except BaseException as exc:  # raised again in the caller, which would wait forever
            error = exc
        del fill  # the draw's buffers go before the caller hears back
        done.put(error)
        del error, done  # nothing of this draw is held while waiting for the next


class _GuideTable:
    """np.interp(u, cdf, edges) for uniforms u in [0, 1), bitwise, at O(1) per draw.

    cdf is non-decreasing from cdf[0] = 0.  [0, 1) is split into `buckets`
    equal buckets, a power of two so that floor(u * buckets) is exact.  Every
    u in a bucket that holds no knot cdf[k] lies in one cell, the one holding
    the bucket's left edge; a u in a bucket that holds a knot (a few percent
    of them) takes its cell j from a binary search, as np.interp does.  The
    value is then np.interp's own arithmetic: slope[j] * (u - cdf[j]) +
    edges[j], edges[j] on a knot, and edges[-1] at or past cdf[-1].
    """

    def __init__(self, cdf: np.ndarray, edges: np.ndarray, buckets: int) -> None:
        # Knots below each bucket bound: a bucket holds a knot where the counts
        # at its two bounds differ; otherwise its cell is the last knot below it.
        below = np.searchsorted(cdf, np.arange(buckets + 1) / buckets)
        self.cell = below[:-1] - 1
        self.knotted = below[1:] != below[:-1]
        # A flat run of the cdf divides by zero; no draw lands in its cells.
        with np.errstate(divide="ignore", over="ignore"):
            slope = np.diff(edges) / np.diff(cdf)
        self.slope = np.append(slope, 0.0)  # cell n: edges[-1] at or past cdf[-1]
        self.cdf, self.edges, self.buckets = cdf, edges, buckets

    def place(self, u: np.ndarray) -> None:
        """Overwrite the uniforms u with np.interp(u, cdf, edges)."""
        bucket = (u * self.buckets).astype(np.intp)
        cell = self.cell[bucket]
        hard = np.flatnonzero(self.knotted[bucket])
        near = u[hard]
        found = np.searchsorted(self.cdf, near, "right") - 1
        cell[hard] = found
        on_knot = near == self.cdf[found]
        # np.interp is silent where a huge slope overflows or meets a knot (inf * 0).
        with np.errstate(over="ignore", invalid="ignore"):
            u -= self.cdf[cell]
            u *= self.slope[cell]
            u += self.edges[cell]
        u[hard[on_knot]] = self.edges[found[on_knot]]


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
