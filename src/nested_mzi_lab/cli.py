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
    PhotonSample,
    SpectrumReport,
    default_protocol,
    photon_dither_experiment,
    run_dither,
    spectrum,
    split_signal,
)
from . import __version__
from .elements import DoveConfig, DovePlacement, Mirror, MirrorTable, OutputPort, TiltSet
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

#: Key prefixes of the per-mirror tables; prefix_<mirror> names one entry.
_MIRROR_PREFIXES = ("z", "alpha", "amp", "freq")
_FLOAT_KEYS = {
    "path_length", "wavelength", "w0", "grid_half_width", "sample_rate", "duration",
    *(f"{prefix}_{m.value}" for prefix in _MIRROR_PREFIXES for m in Mirror),
}
_INT_KEYS = {"grid_n", "seed", "photons_per_sample"}
_STR_KEYS = {"command", "preset", "engine", "dove", "port", "out"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

_DOVE_OFF = "off"  # dove= value for no prisms; the others are DovePlacement values


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
        """Flat key=value block; parse_config() round-trips it."""
        s, t, p = self.scenario, self.tilts, self.protocol
        lines = [f"command={self.command}"]
        if self.preset is not None:
            lines.append(f"preset={self.preset}")
        lines.append(f"engine={self.engine}")
        if self.seed is not None:
            lines.append(f"seed={self.seed}")
        dove = s.dove.placement.value if s.dove.enabled else _DOVE_OFF
        lines += [
            *_mirror_lines("z", s.distances),
            f"path_length={s.path_length!r}",
            f"wavelength={s.beam.wavelength!r}",
            f"w0={s.beam.w0!r}",
            f"grid_n={s.grid.n}",
            f"grid_half_width={s.grid.half_width!r}",
            f"dove={dove}",
            f"port={s.output_port.value}",
            *_mirror_lines("alpha", t),
            *_mirror_lines("amp", p.amplitudes),
            *_mirror_lines("freq", p.frequencies),
            f"sample_rate={p.sample_rate!r}",
            f"duration={p.duration!r}",
            f"photons_per_sample={self.photons_per_sample}",
        ]
        return "\n".join(lines) + "\n"

    def manifest(self) -> str:
        body = self.to_text()
        digest = hashlib.sha256(body.encode()).hexdigest()
        return (
            "# nested-mzi-lab run manifest\n"
            f"# version={__version__}\n"
            f"# manifest_sha256={digest}\n" + body
        )

    def manifest_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def _mirror_lines(prefix: str, table: MirrorTable) -> list[str]:
    return [f"{prefix}_{m.value}={value!r}" for m, value in table.items()]


def _override(values: dict[str, object], prefix: str, table: MirrorTable) -> MirrorTable:
    """table with each entry replaced by its prefix_<mirror> key where one was given."""
    return type(table)((values.get(f"{prefix}_{m.value}", v) for m, v in table.items()), prefix)


def _member(enum: type[Enum], key: str, text: object, *extra: str) -> Enum:
    """The enum member whose value is text, given for key (extra: its other strings)."""
    try:
        return enum(text)
    except ValueError:
        expected = ", ".join([*extra, *(m.value for m in enum)])
        raise ConfigError(f"{key}={text!r} invalid; expected one of {expected}") from None


def _tokenize(text: str) -> list[tuple[str, str]]:
    pairs = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            if "=" not in token:
                raise ConfigError(f"expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            pairs.append((key, value))
    return pairs


def _convert(key: str, value: str):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
    except ValueError as exc:
        raise ConfigError(f"could not parse {key}={value!r}: {exc}") from None
    return value


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value configuration text into a fully validated RunConfig.

    Later occurrences of a key override earlier ones, so preset values can be
    overridden by explicit settings.
    """
    values: dict[str, object] = {}
    for key, raw in _tokenize(text):
        values[key] = _convert(key, raw)

    command = str(values.get("command", ""))
    if not command:
        raise ConfigError(f"command missing; expected one of {', '.join(COMMANDS)}")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")

    preset_name = values.get("preset")
    if preset_name is not None:
        preset = load_preset(str(preset_name))
        scenario, tilts = preset.scenario, preset.tilts
    else:
        scenario, tilts = default_scenario(), TiltSet()
    protocol = default_protocol()

    beam = scenario.beam
    if "wavelength" in values or "w0" in values:
        beam = GaussianSpec(
            w0=float(values.get("w0", beam.w0)),
            wavelength=float(values.get("wavelength", beam.wavelength)),
        )
    grid = scenario.grid
    if "grid_n" in values or "grid_half_width" in values:
        grid = TransverseGrid(
            n=int(values.get("grid_n", grid.n)),
            half_width=float(values.get("grid_half_width", grid.half_width)),
        )
    dove = scenario.dove
    if values.get("dove") == _DOVE_OFF:
        dove = DoveConfig(enabled=False)
    elif "dove" in values:
        placement = _member(DovePlacement, "dove", values["dove"], _DOVE_OFF)
        dove = DoveConfig(enabled=True, placement=placement)
    port = scenario.output_port
    if "port" in values:
        port = _member(OutputPort, "port", values["port"])
    scenario = Scenario(
        distances=_override(values, "z", scenario.distances),
        path_length=float(values.get("path_length", scenario.path_length)),
        beam=beam,
        grid=grid,
        dove=dove,
        output_port=port,
    )
    tilts = _override(values, "alpha", tilts)
    protocol = DitherProtocol(
        amplitudes=_override(values, "amp", protocol.amplitudes),
        frequencies=_override(values, "freq", protocol.frequencies),
        sample_rate=float(values.get("sample_rate", protocol.sample_rate)),
        duration=float(values.get("duration", protocol.duration)),
    )

    engine = str(values.get("engine", "numeric"))
    if engine not in ENGINES:
        raise ConfigError(f"engine={engine!r} invalid; expected one of {', '.join(ENGINES)}")
    if command != "centroid" and engine != "numeric":
        raise ConfigError("engine selection applies only to the centroid command")

    seed = values.get("seed")
    if command == "photons" and seed is None:
        raise ConfigError("seed is required for photon commands")

    photons_per_sample = int(values.get("photons_per_sample", 100_000))
    if photons_per_sample < 1:
        raise ConfigError("photons_per_sample must be >= 1")

    out = values.get("out")
    return RunConfig(
        command=command,
        preset=str(preset_name) if preset_name is not None else None,
        scenario=scenario,
        tilts=tilts,
        protocol=protocol,
        engine=engine,
        seed=int(seed) if seed is not None else None,
        out=str(out) if out is not None else None,
        photons_per_sample=photons_per_sample,
    )


# ---------------------------------------------------------------------------
# CSV writers (the serialization surface for fields, series, spectra, photons)


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


def write_photons_csv(
    path: FsPath, sample: PhotonSample, comments: list[str] | None = None
) -> None:
    """Photon detection positions as CSV with a single position column."""
    _check_finite(path, sample.positions)
    notes = list(comments or [])
    notes.append(f"seed={sample.seed}")
    notes.append(f"count={sample.count}")
    rows = [f"{float(x)!r}" for x in sample.positions]
    _write_lines(path, notes, "position", rows)


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
