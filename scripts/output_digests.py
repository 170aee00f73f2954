#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed matrix of CLI runs.

The first line names the numpy version and Python's major.minor that ran it
(not Python's patch release, which does not change the bytes).  Then it runs
every preset through weak-values, centroid (numeric engine, both engines at a
small A+E tilt, and both engines at the preset's own tilt), before-F, dither
and photons (seed 7), the last two at sample_rate=2400, then weak-values and
centroid (both engines, all five mirrors tilted inside the small-angle
regime) with unequal inner arms, into a temporary directory, and prints one
"sha256  preset/run/file" line per output file.
Each preset then gets one "sha256  preset/sample_photons/positions" line: the
bytes of 100,000 photon positions drawn at seed 7 from the preset's numeric
detector field.  The package is imported from the checkout that holds this
script, so byte identity between two checkouts is one diff:

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
}


def main() -> int:
    print(f"# python {sys.version_info.major}.{sys.version_info.minor} numpy {np.__version__}")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for preset in PRESET_NAMES:
            for run, args in RUNS.items():
                out = root / preset / run
                code = cli.main([*args, "--preset", preset, "--out", str(out)])
                if code != 0:
                    print(f"{preset}/{run} exited {code}", file=sys.stderr)
                    return 1
                for path in sorted(out.iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {preset}/{run}/{path.name}")
            loaded = load_preset(preset)
            field = detector_field_numeric(loaded.scenario, loaded.tilts)
            positions = sample_photons(field, 100_000, seed=7).positions
            digest = hashlib.sha256(positions.tobytes()).hexdigest()
            print(f"{digest}  {preset}/sample_photons/positions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
