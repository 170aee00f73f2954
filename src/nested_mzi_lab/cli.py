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
from pathlib import Path as FsPath

import numpy as np

from .detection import (
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
from .fields import GaussianSpec, TransverseField, TransverseGrid, _one_row, centroid, power
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
_FLOAT_KEYS = {key for key, kind in _KEY_TYPES.items() if kind is float}


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

    def manifest(self) -> str:
        return (
            "# nested-mzi-lab run manifest\n"
            f"# version={__version__}\n"
            f"# manifest_sha256={self.manifest_hash()}\n" + self.to_text()
        )

    def manifest_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


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


def _check_finite(path: FsPath, *arrays) -> None:
    """Last guard before a write: no nan or inf reaches disk."""
    for values in arrays:
        if not np.isfinite(values).all():
            raise GuardError(f"{path.name} would hold non-finite values; not written")


def _write_lines(path: FsPath, comments: list[str], header: str, rows: list[str]) -> None:
    text = "".join(f"# {c}\n" for c in comments) + header + "\n"
    if rows:
        text += "\n".join(rows) + "\n"
    path.write_text(text)


def write_field_csv(
    path: FsPath, field: TransverseField, comments: list[str] | None = None
) -> None:
    """Field samples as CSV with columns x, re, im."""
    amplitude = _one_row(field, "write_field_csv")
    _check_finite(path, field.grid.xs, amplitude)
    rows = [
        f"{float(x)!r},{float(a.real)!r},{float(a.imag)!r}"
        for x, a in zip(field.grid.xs, amplitude)
    ]
    _write_lines(path, comments or [], "x,re,im", rows)


def write_series_csv(
    path: FsPath, times: np.ndarray, series: np.ndarray, comments: list[str] | None = None
) -> None:
    """Dither time series as CSV with columns t, signal."""
    _check_finite(path, times, series)
    rows = [f"{float(t)!r},{float(v)!r}" for t, v in zip(times, series)]
    _write_lines(path, comments or [], "t,signal", rows)


def write_spectrum_csv(
    path: FsPath, report: SpectrumReport, comments: list[str] | None = None
) -> None:
    """Spectrum report as CSV with columns mirror, f, re, im, magnitude."""
    _check_finite(path, list(report.amplitudes.values()), report.noise_floor)
    notes = list(comments or [])
    notes.append(f"noise_floor={report.noise_floor!r}")
    peaks = ",".join(sorted(m.value for m in report.peak_mirrors()))
    notes.append(f"peaks_over_5x_floor={peaks}")
    rows = []
    for mirror in Mirror:
        amp = report.amplitudes[mirror]
        rows.append(
            f"{mirror.value},{report.frequencies[mirror]!r},"
            f"{amp.real!r},{amp.imag!r},{abs(amp)!r}"
        )
    _write_lines(path, notes, "mirror,f,re,im,magnitude", rows)


# ---------------------------------------------------------------------------
# command execution


def _detector_fields(config: RunConfig) -> list[tuple[str, TransverseField]]:
    out = []
    if config.engine in ("numeric", "both"):
        out.append(("numeric", detector_field_numeric(config.scenario, config.tilts)))
    if config.engine in ("analytic", "both"):
        out.append(("analytic", detector_field_analytic(config.scenario, config.tilts)))
    return out


def run(config: RunConfig) -> int:
    """Execute the configured command, writing CSV outputs and a manifest."""
    if config.out is None:
        raise ConfigError("out directory missing")
    out_dir = FsPath(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = [f"manifest_sha256={config.manifest_hash()}"]
    (out_dir / "manifest.txt").write_text(config.manifest())

    if config.command == "weak-values":
        report = weak_value_report(config.scenario)
        _check_finite(
            out_dir / "weak_values.csv",
            list(report.projector.values()),
            list(report.effective.values()),
        )
        rows = []
        for mirror in Mirror:
            pv = report.projector[mirror]
            rows.append(
                f"{mirror.value},{pv.real!r},{pv.imag!r},{report.effective[mirror]!r}"
            )
        _write_lines(
            out_dir / "weak_values.csv",
            stamp,
            "mirror,projector_re,projector_im,effective",
            rows,
        )
        (out_dir / "weak_values.txt").write_text(
            f"# manifest_sha256={config.manifest_hash()}\n" + report.to_text()
        )
    elif config.command == "centroid":
        rows = []
        for engine_name, field in _detector_fields(config):
            values = (centroid(field), split_signal(field), power(field))
            _check_finite(out_dir / "centroid.csv", values)
            rows.append(f"{engine_name},{values[0]!r},{values[1]!r},{values[2]!r}")
        _write_lines(
            out_dir / "centroid.csv", stamp, "engine,centroid,split_signal,power", rows
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
        _check_finite(out_dir / "before_f.csv", power(field))
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
    lines: list[str] = []
    if args.config:
        lines.append(FsPath(args.config).read_text())
    if args.preset:
        lines.append(f"preset={args.preset}")
    for pair in args.set or []:
        lines.append(pair)
    if args.engine:
        lines.append(f"engine={args.engine}")
    if args.seed is not None:
        lines.append(f"seed={args.seed}")
    if args.out:
        lines.append(f"out={args.out}")
    if args.command:
        lines.append(f"command={args.command}")
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
    parser.add_argument("--seed", type=int, help="random seed (required for photons)")
    parser.add_argument("--engine", choices=ENGINES, help="centroid engine selection")
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
