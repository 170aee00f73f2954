#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed matrix of CLI runs.

Runs every preset through weak-values, centroid (numeric engine, and both
engines at a small A+E tilt), before-F, dither and photons (seed 7), the
last two at sample_rate=2400, into a temporary directory, and prints one
"sha256  preset/run/file" line per output file.  The package is imported
from the checkout that holds this script, so byte identity between two
checkouts is one diff:

    python scripts/output_digests.py > new.txt
    python /path/to/other/checkout/scripts/output_digests.py > old.txt
    diff old.txt new.txt
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nested_mzi_lab import PRESET_NAMES, cli  # noqa: E402 - needs the path above

SHORT = ["--set", "sample_rate=2400"]
RUNS = {
    "weak-values": ["weak-values"],
    "centroid-numeric": ["centroid", "--engine", "numeric"],
    "centroid-both": [
        "centroid", "--engine", "both", "--set", "alpha_A=5e-7", "--set", "alpha_E=5e-7",
    ],
    "before-F": ["before-F"],
    "dither": ["dither", *SHORT],
    "photons": ["photons", "--seed", "7", *SHORT],
}


def main() -> int:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
