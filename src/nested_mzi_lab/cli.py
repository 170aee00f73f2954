"""Command-line harness: flat key=value configuration, preset experiments, CSV output.

Every run writes a plain-text manifest holding all resolved parameters; the
manifest body is itself valid configuration text, so any output can be
reproduced exactly with --config manifest.txt.  All outputs are byte-stable
for identical configurations and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path as FsPath

import numpy as np

from .detection import (
    PEAK_FACTOR,
    DitherProtocol,
    SpectrumReport,
    default_protocol,
    photon_dither_experiment,
    run_dither,
    spectrum,
    split_signal,
)
from . import __version__
from .elements import Mirror, MirrorTable, TiltSet
from .errors import ConfigError, GuardError
from .fields import GaussianSpec, TransverseField, TransverseGrid, centroid, power
from .interferometer import (
    Scenario,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    field_before_F,
    load_preset,
)
from .weak_values import weak_value_report

COMMANDS = ("weak-values", "centroid", "dither", "photons", "before-F")
ENGINES = ("numeric", "analytic", "both")


def _run_values(
    scenario: Scenario, tilts: TiltSet, protocol: DitherProtocol, photons_per_sample: int = 100_000
) -> dict[str, object]:
    """The CLI's one key table: every physics key of a run and its value, in manifest order."""
    s, p = scenario, protocol
    return {
        **_per_mirror("z", s.distances),
        "path_length": s.path_length,
        "wavelength": s.beam.wavelength,
        "w0": s.beam.w0,
        "grid_n": s.grid.n,
        "grid_half_width": s.grid.half_width,
        "dove": s.dove,
        "port": s.output_port,
        **_per_mirror("alpha", tilts),
        **_per_mirror("amp", p.amplitudes),
        **_per_mirror("freq", p.frequencies),
        "sample_rate": p.sample_rate,
        "duration": p.duration,
        "photons_per_sample": photons_per_sample,
    }


def _per_mirror(prefix: str, table: MirrorTable) -> dict[str, float]:
    return {f"{prefix}_{m.value}": value for m, value in table.items()}


def _table(values: dict[str, object], prefix: str, kind: type = MirrorTable) -> MirrorTable:
    """The per-mirror table built from the prefix_<mirror> entries of values."""
    return kind((values[f"{prefix}_{m.value}"] for m in Mirror), prefix)


#: Keys that name the run rather than its physics, with their types; all but
#: out head the manifest, in this order.
_RUN_KEYS = {"command": str, "preset": str, "engine": str, "seed": int, "out": str}
#: The values of a run without a preset: the default scenario, untilted.
_DEFAULTS = _run_values(default_scenario(), TiltSet(), default_protocol())
_KEY_TYPES = {**_RUN_KEYS, **{key: type(value) for key, value in _DEFAULTS.items()}}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description with every default materialized."""

    command: str
    preset: str | None
    scenario: Scenario
    tilts: TiltSet
    protocol: DitherProtocol
    engine: str
    seed: int | None
    out: str | None
    photons_per_sample: int

    def to_text(self) -> str:
        """Flat key=value block in manifest order; parse_config() round-trips it."""
        head = {key: getattr(self, key) for key in _RUN_KEYS if key != "out"}
        body = _run_values(self.scenario, self.tilts, self.protocol, self.photons_per_sample)
        return "".join(
            f"{key}={value.value if isinstance(value, Enum) else value}\n"
            for key, value in {**head, **body}.items()
            if value is not None
        )

    @cached_property
    def _text_and_hash(self) -> tuple[str, str]:
        """to_text() and its SHA-256, made once per config."""
        text = self.to_text()
        return text, hashlib.sha256(text.encode()).hexdigest()

    def manifest(self) -> str:
        text, digest = self._text_and_hash
        return (
            "# nested-mzi-lab run manifest\n"
            f"# version={__version__}\n"
            f"# manifest_sha256={digest}\n" + text
        )

    def manifest_hash(self) -> str:
        return self._text_and_hash[1]


def _tokenize(text: str) -> list[tuple[str, str]]:
    pairs = []
    for raw_line in text.splitlines():
        for token in raw_line.split("#", 1)[0].split():
            if "=" not in token:
                raise ConfigError(f"expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key not in _KEY_TYPES:
                raise ConfigError(f"unknown configuration key {key!r}")
            pairs.append((key, value))
    return pairs


def _convert(key: str, value: str):
    """value read as the type of key: a number, a string or the member of an enum."""
    kind = _KEY_TYPES[key]
    try:
        return kind(value)
    except ValueError as exc:
        if issubclass(kind, Enum):
            expected = ", ".join(m.value for m in kind)
            raise ConfigError(f"{key}={value!r} invalid; expected one of {expected}") from None
        raise ConfigError(f"could not parse {key}={value!r}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value configuration text into a fully validated RunConfig.

    Later occurrences of a key override earlier ones.  The given keys are laid
    over the preset's (or the default) values, and every object is built from
    the merged values.
    """
    given = {key: _convert(key, raw) for key, raw in _tokenize(text)}

    command = given.get("command", "")
    if not command:
        raise ConfigError(f"command missing; expected one of {', '.join(COMMANDS)}")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")

    preset = given.get("preset")
    defaults = _DEFAULTS
    if preset is not None:
        base = load_preset(preset)
        defaults = _run_values(base.scenario, base.tilts, default_protocol())
    values = {key: given.get(key, default) for key, default in defaults.items()}

    scenario = Scenario(
        distances=_table(values, "z"),
        path_length=values["path_length"],
        beam=GaussianSpec(w0=values["w0"], wavelength=values["wavelength"]),
        grid=TransverseGrid(n=values["grid_n"], half_width=values["grid_half_width"]),
        dove=values["dove"],
        output_port=values["port"],
    )
    tilts = _table(values, "alpha", TiltSet)
    protocol = DitherProtocol(
        amplitudes=_table(values, "amp"),
        frequencies=_table(values, "freq"),
        sample_rate=values["sample_rate"],
        duration=values["duration"],
    )

    engine = given.get("engine", "numeric")
    if engine not in ENGINES:
        raise ConfigError(f"engine={engine!r} invalid; expected one of {', '.join(ENGINES)}")
    if command != "centroid" and engine != "numeric":
        raise ConfigError("engine selection applies only to the centroid command")

    seed = given.get("seed")
    if command == "photons" and seed is None:
        raise ConfigError("seed is required for photon commands")

    photons_per_sample = values["photons_per_sample"]
    if photons_per_sample < 1:
        raise ConfigError("photons_per_sample must be >= 1")

    return RunConfig(
        command=command,
        preset=preset,
        scenario=scenario,
        tilts=tilts,
        protocol=protocol,
        engine=engine,
        seed=seed,
        out=given.get("out"),
        photons_per_sample=photons_per_sample,
    )


# ---------------------------------------------------------------------------
# CSV writers (the serialization surface for fields, series and spectra)


#: Rows formatted by one %-format string at a time.
_CSV_BLOCK = 1024


def _write_csv(path: FsPath, comments: list[str], header: str, *columns) -> None:
    """The one CSV writer: comment lines, a header, then one row per entry of the columns.

    A column of strings is written as it is, and a numeric column as the
    repr of each value as a Python float.  This is the last guard before a
    write: a nan or inf in a numeric column, or a comment key=value whose
    value reads nan or inf, raises GuardError and nothing is written.
    """
    finite = all(c.rpartition("=")[2] not in ("nan", "inf", "-inf") for c in comments)
    cells, formats = [], []
    for column in columns:
        values = np.asarray(column)
        text = values.dtype.kind == "U"
        finite = finite and (text or bool(np.isfinite(values).all()))
        cells.append(values.tolist())
        formats.append("%s" if text else "%r")
    if not finite:
        raise GuardError(f"{path.name} would hold non-finite values; not written")
    row, width = ",".join(formats) + "\n", len(cells)
    flat = [None] * (width * len(cells[0]))  # row-major: a block of rows is one slice
    for i, cell in enumerate(cells):
        flat[i::width] = cell
    with path.open("w") as f:  # a block at a time: a 10,000-row series is never one string
        f.writelines(f"# {c}\n" for c in comments)
        f.write(header + "\n")
        for start in range(0, len(flat), _CSV_BLOCK * width):
            block = flat[start : start + _CSV_BLOCK * width]
            f.write(row * (len(block) // width) % tuple(block))


def write_field_csv(
    path: FsPath, field: TransverseField, comments: list[str] | None = None
) -> None:
    """Field samples as CSV with columns x, re, im."""
    a = field.amplitude
    _write_csv(path, comments or [], "x,re,im", field.grid.xs, a.real, a.imag)


def write_series_csv(
    path: FsPath, times: np.ndarray, series: np.ndarray, comments: list[str] | None = None
) -> None:
    """Dither time series as CSV with columns t, signal."""
    _write_csv(path, comments or [], "t,signal", times, series)


def write_spectrum_csv(
    path: FsPath, report: SpectrumReport, comments: list[str] | None = None
) -> None:
    """Spectrum report as CSV with columns mirror, f, re, im, magnitude."""
    peaks = ",".join(sorted(m.value for m in report.peak_mirrors()))
    notes = [
        *(comments or []),
        f"noise_floor={report.noise_floor!r}",
        f"peaks_over_{PEAK_FACTOR:g}x_floor={peaks}",
    ]
    amps = [report.amplitudes[m] for m in Mirror]
    _write_csv(
        path, notes, "mirror,f,re,im,magnitude",
        [m.value for m in Mirror], list(report.frequencies),
        [a.real for a in amps], [a.imag for a in amps],
        [report.magnitude(m) for m in Mirror],  # abs(complex), not np.abs: the last bit differs
    )


# ---------------------------------------------------------------------------
# command execution


def run(config: RunConfig) -> int:
    """Execute the configured command, writing CSV outputs and a manifest."""
    if not config.out:  # an empty out would write into the working directory
        raise ConfigError("out directory missing")
    out_dir = FsPath(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make out directory {config.out!r}: {exc}") from None
    stamp = [f"manifest_sha256={config.manifest_hash()}"]
    (out_dir / "manifest.txt").write_text(config.manifest())

    if config.command == "weak-values":
        report = weak_value_report(config.scenario)
        projector = [report.projector[m] for m in Mirror]
        _write_csv(
            out_dir / "weak_values.csv", stamp, "mirror,projector_re,projector_im,effective",
            [m.value for m in Mirror], [v.real for v in projector], [v.imag for v in projector],
            [report.effective[m] for m in Mirror],
        )
        (out_dir / "weak_values.txt").write_text(f"# {stamp[0]}\n" + report.to_text())
    elif config.command == "centroid":
        engines = {"numeric": detector_field_numeric, "analytic": detector_field_analytic}
        names = [name for name in engines if config.engine in (name, "both")]
        rows = [
            (centroid(f), split_signal(f), power(f))
            for f in (engines[name](config.scenario, config.tilts) for name in names)
        ]
        _write_csv(
            out_dir / "centroid.csv", stamp, "engine,centroid,split_signal,power",
            names, *zip(*rows),
        )
    elif config.command == "dither":
        series = run_dither(config.scenario, config.protocol)
        report = spectrum(series, config.protocol)
        write_series_csv(out_dir / "series.csv", config.protocol.times(), series, stamp)
        write_spectrum_csv(out_dir / "spectrum.csv", report, stamp)
    elif config.command == "photons":
        assert config.seed is not None  # enforced by parse_config
        report = photon_dither_experiment(
            config.scenario, config.protocol, config.photons_per_sample, config.seed
        )
        write_spectrum_csv(out_dir / "empirical_spectrum.csv", report, stamp)
    elif config.command == "before-F":
        field = field_before_F(config.scenario, config.tilts)
        single_arm = 1.0 / 3.0  # each inner arm carries norm^2 = 1/3
        notes = stamp + [
            f"power={power(field)!r}",
            f"single_arm_power={single_arm!r}",
            f"power_ratio={power(field) / single_arm!r}",
        ]
        write_field_csv(out_dir / "before_f.csv", field, notes)
    else:  # pragma: no cover - parse_config already validated the command
        raise ConfigError(f"unknown command {config.command!r}")
    return 0


def _assemble_text(args: argparse.Namespace) -> str:
    """--config, then the --set pairs, then the flags: a later key overrides, so a flag wins."""
    try:
        lines = [FsPath(args.config).read_text()] if args.config else []
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    lines += args.set or []
    flags = {key: getattr(args, key) for key in _RUN_KEYS}
    lines += [f"{key}={value}" for key, value in flags.items() if value not in (None, "")]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nested-mzi-lab",
        description="Nested Mach-Zehnder weak-trace experiments (CSV output).",
    )
    parser.add_argument("command", nargs="?", default="", help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("--preset", help="named scenario preset")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one key")
    parser.add_argument("--config", help="file of key=value lines (for example a manifest)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", help="random seed (required for photons)")
    parser.add_argument("--engine", help=f"centroid engine, one of {', '.join(ENGINES)}")
    args = parser.parse_args(argv)
    try:
        config = parse_config(_assemble_text(args))
        return run(config)
    except ConfigError as exc:
        print(f"error category=config message={_one_line(exc)}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error category=guard message={_one_line(exc)}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single-line report, nonzero exit
        print(f"error category=internal message={_one_line(exc)}", file=sys.stderr)
        return 1


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
