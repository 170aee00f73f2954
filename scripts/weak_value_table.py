#!/usr/bin/env python3
"""Print projector vs effective weak values for every preset scenario.

The table contrasts the two quantities the instrument distinguishes: the
projector weak values never change when the prisms go in, while the
z-normalized centroid responses do (E reads -2 with the prisms, A flips sign
when they sit after the inner mirrors, and the alternate port shows a mirror
with weak value 2 and no response at all).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nested_mzi_lab import Mirror, PRESET_NAMES, load_preset, weak_value_report  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="*", default=list(PRESET_NAMES))
    args = parser.parse_args()

    for name in args.presets:
        preset = load_preset(name)
        report = weak_value_report(preset.scenario)
        print(f"\n{name}  (dove={'on' if report.dove_enabled else 'off'}, "
              f"port={preset.scenario.output_port.value})")
        print(f"  {'mirror':8s} {'projector':>12s} {'effective':>12s}")
        for mirror in Mirror:
            projector = report.projector[mirror]
            label = f"{projector.real:+.3f}" if abs(projector.imag) < 1e-9 else str(projector)
            print(f"  {mirror.value:8s} {label:>12s} {report.effective[mirror]:>+12.4f}")


if __name__ == "__main__":
    main()
