#!/usr/bin/env python3
"""Run the dither-spectroscopy experiment with and without the Dove prisms.

Reports which mirrors leave a trace (a peak above 5x the noise floor at their
dither frequency), deterministically and with photon-counting acquisition.
The headline: inserting the prisms adds mirror E to the trace set while every
weak value stays put.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from nested_mzi_lab import (
    Dove,
    Mirror,
    MirrorTable,
    default_protocol,
    default_scenario,
    photon_dither_experiment,
    run_dither,
    spectrum,
)
from nested_mzi_lab.cli import write_series_csv, write_spectrum_csv


def describe(tag, report):
    peaks = ",".join(sorted(m.value for m in report.peak_mirrors())) or "-"
    mags = "  ".join(f"{m.value}={report.magnitude(m):.3e}" for m in Mirror)
    print(f"{tag:24s} peaks[{peaks}]  floor={report.noise_floor:.2e}  {mags}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--photons", type=int, default=100_000, help="photons per time sample")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true", help="use the short 0.25 s protocol")
    parser.add_argument("--out", type=Path, help="directory for CSV output")
    args = parser.parse_args()

    protocol = default_protocol()
    if args.quick:
        protocol = replace(
            protocol,
            frequencies=MirrorTable((100.0, 128.0, 160.0, 264.0, 440.0)),
            sample_rate=4000.0, duration=0.25,
        )

    configs = [
        ("no prisms", default_scenario()),
        ("prisms in", default_scenario(dove=Dove.BEFORE)),
    ]
    for tag, scenario in configs:
        series = run_dither(scenario, protocol)
        deterministic = spectrum(series, protocol)
        describe(f"{tag} / deterministic", deterministic)
        empirical = photon_dither_experiment(scenario, protocol, args.photons, args.seed)
        describe(f"{tag} / {args.photons} photons", empirical)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            stem = tag.replace(" ", "_")
            write_series_csv(args.out / f"{stem}_series.csv", protocol.times(), series)
            write_spectrum_csv(args.out / f"{stem}_spectrum.csv", deterministic)
            write_spectrum_csv(args.out / f"{stem}_photon_spectrum.csv", empirical)


if __name__ == "__main__":
    main()
