#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed matrix of CLI runs.

The first line names the numpy version and Python's major.minor that ran it
(not Python's patch release, which does not change the bytes).  Then it runs
every preset through weak-values, centroid (numeric engine, both engines at a
small A+E tilt, and both engines at the preset's own tilt), before-F, dither
and photons (seed 7), the last two at sample_rate=2400, then weak-values and
centroid (both engines, all five mirrors tilted inside the small-angle
regime) with unequal inner arms, then weak-values and before-F at
path_length = z_E, where the source propagates over 0 m to mirror E, into a
temporary directory, and prints one "sha256  preset/run/file" line per output
file.
Each preset then gets one "sha256  preset/sample_photons/positions" line: the
bytes of 100,000 photon positions drawn at seed 7 from the preset's numeric
detector field, grouped by pixel in the grid's order.  A
"preset/sample_photons/positions-reused" line follows: 77,777 positions drawn at
seed 8 from the same field object, which a draw keeps no state for, so its bytes
depend on the field and the seed alone.  Last, one "fig1c/dither-wide/..."
line per output of a single dither run whose beam is 40 Rayleigh ranges wide at
the detector: past the half-grid moments' reach at the regime's crest bound, so
run_dither reads them at each chunk's own radius.  The package is imported from
the checkout that holds this script, so byte identity between two checkouts is
one diff:

    python scripts/output_digests.py > new.txt
    python /path/to/other/checkout/scripts/output_digests.py > old.txt
    diff old.txt new.txt

The printout of this checkout is committed as scripts/output_digests.txt, so
`python scripts/output_digests.py | diff scripts/output_digests.txt -` shows
every output a change moves.  A change that moves bytes rewrites that file.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nested_mzi_lab import (  # noqa: E402 - needs the path above
    PRESET_NAMES,
    cli,
    detector_field_numeric,
    load_preset,
    sample_photons,
)

SHORT = ["--set", "sample_rate=2400"]
#: z_A != z_B, so every path trace is its own: a cache keyed on too little gives wrong bytes.
UNEQUAL = ["--set", "z_A=1.2", "--set", "z_B=0.8"]
#: path_length = z_E = 1.5 m: the outer prefix is a propagation over 0 m.
ZERO_PREFIX = ["--set", "path_length=1.5"]
RUNS = {
    "weak-values": ["weak-values"],
    "centroid-numeric": ["centroid", "--engine", "numeric"],
    "centroid-both": [
        "centroid", "--engine", "both", "--set", "alpha_A=5e-7", "--set", "alpha_E=5e-7",
    ],
    "centroid-preset": ["centroid", "--engine", "both"],
    "before-F": ["before-F"],
    "dither": ["dither", *SHORT],
    "photons": ["photons", "--seed", "7", *SHORT],
    "weak-values-unequal": ["weak-values", *UNEQUAL],
    "centroid-both-unequal": [
        "centroid", "--engine", "both", *UNEQUAL, "--set", "alpha_A=5e-7", "--set", "alpha_B=-3e-7",
        "--set", "alpha_C=4e-7", "--set", "alpha_E=-6e-7", "--set", "alpha_F=2e-7",
    ],
    "weak-values-zero-prefix": ["weak-values", *ZERO_PREFIX],
    "before-F-zero-prefix": ["before-F", *ZERO_PREFIX],
}
#: A 200 m path (40 z_R) widens fig1c's beam past the moments' reach at the crest bound, but
#: not at the run's own radius (run once, not per preset).
WIDE = [
    "dither", "--preset", "fig1c", "--set", "path_length=200", "--set", "grid_half_width=0.2",
    "--set", "grid_n=4096", *SHORT,
]


def print_run(out: Path, label: str, args: list[str]) -> bool:
    """Run the CLI into out and print one digest line per output; False where it failed."""
    code = cli.main([*args, "--out", str(out)])
    if code != 0:
        print(f"{label} exited {code}", file=sys.stderr)
        return False
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {label}/{path.name}")
    return True


def main() -> int:
    print(f"# python {sys.version_info.major}.{sys.version_info.minor} numpy {np.__version__}")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for preset in PRESET_NAMES:
            for run, args in RUNS.items():
                label = f"{preset}/{run}"
                if not print_run(root / label, label, [*args, "--preset", preset]):
                    return 1
            loaded = load_preset(preset)
            field = detector_field_numeric(loaded.scenario, loaded.tilts)
            for count, seed, name in ((100_000, 7, "positions"), (77_777, 8, "positions-reused")):
                positions = sample_photons(field, count, seed).positions
                digest = hashlib.sha256(positions.tobytes()).hexdigest()
                print(f"{digest}  {preset}/sample_photons/{name}")
        if not print_run(root / "wide", "fig1c/dither-wide", WIDE):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
