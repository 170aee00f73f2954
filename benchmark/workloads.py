"""The benchmark's workloads: seeded op lists, their execution and their correctness gates.

A run issues ops from one caller in a closed loop: the next op starts only
when the previous one has returned and been checked.  Ops come in passes;
pass ``i`` of a workload is generated from ``(seed, i)`` alone, so the same
seed always gives the same ops, and every pass has the same composition, so
passes cost the same whichever seed drew them.  The toolkit only ever sees
the generated CLI arguments and draw requests.

Workloads (the why of each is also in BENCHMARK.json):

``dither``
    One full default-protocol ``dither`` CLI call per pass (10,000 samples,
    1 s at 10 kHz), cycling through the five presets from a seeded start.
    The numeric engine does nearly all the work on one cache-hot scenario,
    so engine batching, FFT sharing and ramp tables act here.
``interactive``
    Many short CLI calls (``weak-values``, ``centroid --engine
    numeric|both``, ``before-F``) over every grid size from 512 to 4096, each
    with seeded geometry and tilts, so every call builds a new scenario and
    misses the prefix caches.  Parsing, manifest and CSV writes, the analytic
    engine and per-call overhead weigh here; batching over time cannot help.
``photons``
    One ``photons`` CLI call at the short protocol with 1e7 photons per
    sample, plus seeded ``sample_photons`` draws at 1e4, 1e5 and 1e6 photons
    on one detector field per pass.  RNG and inverse-CDF sampling dominate.
"""

from __future__ import annotations

import math
import time
import traceback
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from program import import_program

lab = import_program()
from nested_mzi_lab import cli, detection  # noqa: E402 - import_program sets the path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.npz"
OUT = HERE / "out"

PRESETS = lab.PRESET_NAMES
#: Mirrors that leave a dither trace on each preset (the paper's signature).
EXPECTED_PEAKS = {
    "fig1a": "A,B,C",
    "fig1b": "A,B,C",
    "fig1c": "A,B,C,E",
    "dove-after": "A,B,C,E",
    "alt-port": "A,B,C,F",
}
#: The short test protocol: 1000 samples, 4 kHz, 0.25 s.
SHORT_PROTOCOL = (
    "freq_A=100.0", "freq_B=128.0", "freq_C=160.0", "freq_E=264.0", "freq_F=440.0",
    "sample_rate=4000.0", "duration=0.25",
)
SHORT_SAMPLES = 1000

#: ROADMAP's fast-path tolerance: a dither series must match the stored
#: reference to this fraction of the reference's largest magnitude.
SERIES_RTOL = 1e-12
#: Acceptance tolerances: criterion 6 (engines agree within 1%, floored at
#: 1e-3 w0), criterion 3 (effective E is -2 within 1e-2) and criterion 8
#: (standard-error ratio within a factor 1.5 of sqrt(N ratio)).
ENGINE_RTOL = 0.01
ENGINE_FLOOR_W0 = 1e-3
EFFECTIVE_E = -2.0
EFFECTIVE_ATOL = 1e-2
SE_FACTOR = 1.5

#: The presets' signature tilt of 50 urad gives k*alpha*w0 = 0.50, fifty times
#: the analytic engine's small-angle bound of 1e-2, so `centroid --engine both`
#: on an unmodified preset exits 3 with a guard error (true of all five
#: presets).  Interactive ops therefore override all five tilts, as the
#: README's `alpha_A=5e-7` example does, to |alpha| <= 5e-7 (k*alpha*w0 <= 0.005).
MAX_TILT = 5e-7
GRID_SIZES = (512, 1024, 2048, 4096)
INTERACTIVE_COMMANDS = (
    ("weak-values", ()),
    ("centroid", ("--engine", "numeric")),
    ("centroid", ("--engine", "both")),
    ("before-F", ()),
)
#: Numeric detector fields each interactive command asks the engine for
#: (weak-values takes a central difference for each of the five mirrors).
INTERACTIVE_FIELDS = {"weak-values": 10, "centroid": 1, "before-F": 1}


@dataclass(frozen=True)
class Size:
    """How much work one pass does; FULL is the benchmark, TINY its self-test."""

    name: str
    dither_protocol: tuple[str, ...]
    dither_samples: int
    interactive_repeats: int  # ops per (command, grid size) pair per pass
    #: (photons per draw, draws per pass).  Criterion 8 uses 40 draws per
    #: level; with 40, an exact sampler falls outside the factor-1.5 band on
    #: about 2.6% of seeds, so the benchmark draws more: at 200/200/100 the
    #: chance per pass is below 1e-5.
    draw_levels: tuple[tuple[int, int], ...]


FULL = Size(
    name="full",
    dither_protocol=(),
    dither_samples=10_000,
    interactive_repeats=8,
    draw_levels=((10_000, 200), (100_000, 200), (1_000_000, 100)),
)
TINY = Size(
    name="tiny",
    dither_protocol=SHORT_PROTOCOL,
    dither_samples=SHORT_SAMPLES,
    interactive_repeats=1,
    draw_levels=((1_000, 100), (10_000, 100)),
)
SIZES = {s.name: s for s in (FULL, TINY)}
PHOTONS_PER_SAMPLE = 10_000_000


@dataclass(frozen=True)
class Op:
    """One call the closed-loop caller issues."""

    command: str  # a CLI command, or "sample_photons"
    preset: str
    args: tuple[str, ...] = ()  # CLI arguments after the command, without --out
    fields: int = 0  # numeric detector fields the call asks the engine for
    photons: int = 0  # photons of a sample_photons draw
    seed: int = 0  # seed of a sample_photons draw

    def text(self) -> str:
        """Canonical one-line form, hashed into the run record."""
        if self.command == "sample_photons":
            return f"sample_photons preset={self.preset} count={self.photons} seed={self.seed}"
        return " ".join((self.command, *self.args))


@dataclass
class PassResult:
    """Timings and gate outcomes of one pass over a workload's op list."""

    times: list[float] = field(default_factory=list)
    failed: int = 0
    bytes_written: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


def _sets(pairs) -> tuple[str, ...]:
    return tuple(a for pair in pairs for a in ("--set", pair))


def read_csv(path: Path) -> tuple[dict[str, str], list[list[str]]]:
    """The ``# key=value`` comments and the data rows (header dropped) of a CLI CSV."""
    comments: dict[str, str] = {}
    body = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif line:
            body.append(line.split(","))
    return comments, body[1:]


def _numbers(rows: list[list[str]], first: int = 0) -> np.ndarray:
    return np.array([[float(c) for c in row[first:]] for row in rows])


def _finite(values: np.ndarray) -> str | None:
    return None if values.size and np.isfinite(values).all() else "non-finite or empty output"


class Workload:
    """Base of the three workloads: set-up, op generation, execution and gates."""

    name = ""

    def __init__(self, size: Size = FULL) -> None:
        self.size = size
        self.out = OUT / self.name

    def first_preset(self, seed: int) -> str:
        """Preset loaded by the set-up before timing starts."""
        return self.make_pass(seed, 0)[0].preset

    def prepare(self, seed: int) -> None:
        """In-process set-up: load the first preset and make the first engine call."""
        preset = lab.load_preset(self.first_preset(seed))
        lab.detector_field_numeric(preset.scenario, preset.tilts)

    def make_pass(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        out = self.out / op.command
        return cli.main([op.command, *op.args, "--out", str(out)])

    def check(self, op: Op, result) -> tuple[str | None, float]:
        """Gate one op: an error message or None, plus the value kept for pass gates."""
        if result != 0:
            return f"exit code {result}", 0.0
        return getattr(self, "_check_" + op.command.replace("-", "_"))(op, self.out / op.command), 0.0

    def check_pass(self, ops: list[Op], values: list[float]) -> str | None:
        """Gate on the pass as a whole; a failure fails every op of the pass."""
        return None

    def output_bytes(self, op: Op) -> int:
        out = self.out / op.command
        return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0

    def run_pass(self, ops: list[Op], tracer=None) -> PassResult:
        """Issue the ops back to back, timing each call and gating its output."""
        result = PassResult()
        values = []
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                outcome = self.execute(op)
            except Exception:  # noqa: BLE001 - a crashing op is a failed op
                outcome = traceback.format_exc(limit=3)
            result.times.append(time.perf_counter() - start)
            try:
                error, value = self.check(op, outcome)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error, value = f"unreadable output: {exc!r}", 0.0
            values.append(value)
            if error is not None:
                result.failed += 1
                print(f"benchmark: op failed: {op.text()}: {error}", file=sys.stderr)
            if tracer is not None:
                result.bytes_written += self.output_bytes(op)
        error = self.check_pass(ops, values)
        if error is not None:
            result.failed = len(ops)
            print(f"benchmark: pass failed: {error}", file=sys.stderr)
        return result


class Dither(Workload):
    name = "dither"

    def __init__(self, size: Size = FULL) -> None:
        super().__init__(size)
        with np.load(REFERENCE) as stored:
            self.reference = {
                preset: stored[f"{size.name}/{preset}"] for preset in PRESETS
            }

    def make_pass(self, seed: int, index: int) -> list[Op]:
        start = int(np.random.default_rng(seed).integers(len(PRESETS)))
        preset = PRESETS[(start + index) % len(PRESETS)]
        args = ("--preset", preset, *_sets(self.size.dither_protocol))
        return [Op("dither", preset, args, fields=self.size.dither_samples)]

    def _check_dither(self, op: Op, out: Path) -> str | None:
        comments, rows = read_csv(out / "spectrum.csv")
        if comments.get("peaks_over_5x_floor") != EXPECTED_PEAKS[op.preset]:
            return f"peaks {comments.get('peaks_over_5x_floor')} != {EXPECTED_PEAKS[op.preset]}"
        _, series_rows = read_csv(out / "series.csv")
        series = _numbers(series_rows)[:, 1]
        return compare_series(series, self.reference[op.preset])


def compare_series(series: np.ndarray, reference: np.ndarray) -> str | None:
    """None when series matches reference to SERIES_RTOL of its largest magnitude."""
    if series.shape != reference.shape:
        return f"series shape {series.shape} != reference {reference.shape}"
    scale = float(np.max(np.abs(reference)))
    worst = float(np.max(np.abs(series - reference)))
    if not worst <= SERIES_RTOL * scale:
        return f"series differs from reference by {worst:.3g} (> {SERIES_RTOL:g} x {scale:.3g})"
    return None


class Interactive(Workload):
    name = "interactive"

    def make_pass(self, seed: int, index: int) -> list[Op]:
        rng = np.random.default_rng([seed, index])
        ops = [
            self._op(rng, command, extra, n)
            for command, extra in INTERACTIVE_COMMANDS
            for n in GRID_SIZES
            for _ in range(self.size.interactive_repeats)
        ]
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _op(rng: np.random.Generator, command: str, extra: tuple[str, ...], n: int) -> Op:
        """One call with seeded geometry and tilts, inside the valid region.

        z_E > z_A, z_B > z_F and path_length >= max(z_E, z_C), each by at least
        0.1 m, so rounding the printed values cannot break an ordering.
        """
        preset = PRESETS[int(rng.integers(len(PRESETS)))]
        z_f = rng.uniform(0.3, 0.7)
        z_a, z_b = z_f + rng.uniform(0.2, 0.8, size=2)
        z_e = max(z_a, z_b) + rng.uniform(0.2, 0.8)
        z_c = rng.uniform(0.5, 1.5)
        path_length = max(z_e, z_c) + rng.uniform(0.1, 1.0)
        values = dict(z_A=z_a, z_B=z_b, z_C=z_c, z_E=z_e, z_F=z_f, path_length=path_length)
        tilts = rng.uniform(-MAX_TILT, MAX_TILT, size=5)
        values.update(zip(("alpha_A", "alpha_B", "alpha_C", "alpha_E", "alpha_F"), tilts))
        pairs = [f"{key}={value:.6g}" for key, value in values.items()] + [f"grid_n={n}"]
        args = (*extra, "--preset", preset, *_sets(pairs))
        return Op(command, preset, args, fields=INTERACTIVE_FIELDS[command])

    def _check_weak_values(self, op: Op, out: Path) -> str | None:
        _, rows = read_csv(out / "weak_values.csv")
        error = _finite(_numbers(rows, first=1))
        if error is None and op.preset == "fig1c":  # prisms before A/B, bright port
            effective_e = float(dict((r[0], r[3]) for r in rows)["E"])
            if not abs(effective_e - EFFECTIVE_E) < EFFECTIVE_ATOL:
                error = f"effective E = {effective_e!r}, expected {EFFECTIVE_E}"
        return error

    def _check_centroid(self, op: Op, out: Path) -> str | None:
        _, rows = read_csv(out / "centroid.csv")
        error = _finite(_numbers(rows, first=1))
        if error is None and "both" in op.args:
            centroids = {r[0]: float(r[1]) for r in rows}
            analytic, numeric = centroids["analytic"], centroids["numeric"]
            w0 = lab.default_beam().w0
            tolerance = ENGINE_RTOL * max(abs(analytic), ENGINE_FLOOR_W0 * w0)
            if not abs(numeric - analytic) <= tolerance:
                error = f"engines disagree: numeric {numeric!r} vs analytic {analytic!r}"
        return error

    def _check_before_F(self, op: Op, out: Path) -> str | None:
        comments, rows = read_csv(out / "before_f.csv")
        return _finite(_numbers(rows)) or _finite(np.array([float(comments["power_ratio"])]))


class Photons(Workload):
    name = "photons"

    def prepare(self, seed: int) -> None:
        """Load every preset and compute the detector fields the draws sample from."""
        self.fields = {}
        for name in PRESETS:
            preset = lab.load_preset(name)
            self.fields[name] = lab.detector_field_numeric(preset.scenario, preset.tilts)

    def make_pass(self, seed: int, index: int) -> list[Op]:
        rng = np.random.default_rng([seed, index])
        preset = PRESETS[int(rng.integers(len(PRESETS)))]
        pairs = (*SHORT_PROTOCOL, f"photons_per_sample={PHOTONS_PER_SAMPLE}")
        args = ("--preset", preset, "--seed", str(int(rng.integers(2**31))), *_sets(pairs))
        ops = [Op("photons", preset, args, fields=SHORT_SAMPLES)]
        field_preset = PRESETS[int(rng.integers(len(PRESETS)))]
        for photons, draws in self.size.draw_levels:
            ops += [
                Op("sample_photons", field_preset, photons=photons, seed=int(rng.integers(2**63)))
                for _ in range(draws)
            ]
        return [ops[i] for i in rng.permutation(len(ops))]

    def execute(self, op: Op):
        if op.command == "sample_photons":
            return detection.sample_photons(self.fields[op.preset], op.photons, op.seed)
        return super().execute(op)

    def check(self, op: Op, result) -> tuple[str | None, float]:
        if op.command != "sample_photons":
            return super().check(op, result)
        if not isinstance(result, lab.PhotonSample):
            return f"no photon sample: {result}", 0.0
        positions = result.positions
        if positions.shape != (op.photons,) or not np.isfinite(positions).all():
            return "positions of wrong shape or non-finite", 0.0
        return None, float(positions.mean())

    def _check_photons(self, op: Op, out: Path) -> str | None:
        comments, rows = read_csv(out / "empirical_spectrum.csv")
        error = _finite(_numbers(rows, first=1))
        if error is None and comments.get("peaks_over_5x_floor") != EXPECTED_PEAKS[op.preset]:
            error = f"peaks {comments.get('peaks_over_5x_floor')} != {EXPECTED_PEAKS[op.preset]}"
        return error

    def check_pass(self, ops: list[Op], values: list[float]) -> str | None:
        """Criterion 8: the standard error of the mean position scales as 1/sqrt(N)."""
        means: dict[int, list[float]] = {}
        for op, value in zip(ops, values):
            if op.command == "sample_photons":
                means.setdefault(op.photons, []).append(value)
        errors = {n: float(np.std(m, ddof=1)) for n, m in sorted(means.items())}
        levels = list(errors)
        for small, big in zip(levels, levels[1:]):
            expected = math.sqrt(big / small)
            ratio = errors[small] / errors[big]
            if not expected / SE_FACTOR <= ratio <= expected * SE_FACTOR:
                return f"SE ratio {ratio:.4g} for N={small}->{big} outside factor {SE_FACTOR} of {expected:.4g}"
        return None


WORKLOADS = {w.name: w for w in (Dither, Interactive, Photons)}
