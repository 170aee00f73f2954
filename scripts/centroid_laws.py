#!/usr/bin/env python3
"""Sweep single-mirror tilts and verify the detector centroid laws.

Without prisms the centroid follows z_A a_A - z_B a_B + z_C a_C and ignores
E and F entirely; with prisms the E term enters with coefficient -2 z_E.
Both engines are swept so their agreement is visible in the output.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nested_mzi_lab import (  # noqa: E402 - needs the path above
    Mirror,
    TiltSet,
    alpha_step,
    centroid,
    detector_field_analytic,
    detector_field_numeric,
    load_preset,
    PRESET_NAMES,
)


def sweep(preset_name: str, points: int) -> None:
    preset = load_preset(preset_name)
    scenario = preset.scenario
    step = alpha_step(scenario.beam)
    print(f"\n{preset_name}: response slopes d<x>/d(alpha) / z_j, engines side by side")
    print(f"  {'mirror':8s} {'numeric':>10s} {'analytic':>10s}")
    for mirror in Mirror:
        alphas = np.linspace(-step, step, points)
        slopes = []
        for engine in (detector_field_numeric, detector_field_analytic):
            ys = [centroid(engine(scenario, TiltSet.single(mirror, a))) for a in alphas]
            slope = np.polyfit(alphas, ys, 1)[0] / scenario.distances[mirror]
            slopes.append(slope)
        print(f"  {mirror.value:8s} {slopes[0]:>+10.4f} {slopes[1]:>+10.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="*", default=list(PRESET_NAMES))
    parser.add_argument("--points", type=int, default=5, help="tilt samples per sweep")
    args = parser.parse_args()
    for name in args.presets:
        sweep(name, args.points)


if __name__ == "__main__":
    main()
