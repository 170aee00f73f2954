#!/usr/bin/env python3
"""Regenerate reference.npz, the dither series the benchmark's gate compares against.

    python3 benchmark/make_reference.py

Runs the ``dither`` CLI command on every preset, at the full default protocol
and at the short protocol of the benchmark's tiny self-test size, and stores
each series under ``<size>/<preset>``.  Run it only when a change to the
physics is meant to change the dither series; a faster engine must match the
stored series to 1e-12 of its largest magnitude.
"""

import numpy as np

from workloads import FULL, OUT, PRESETS, REFERENCE, TINY, _numbers, _sets, read_csv
from nested_mzi_lab import cli


def main() -> None:
    series = {}
    for size in (FULL, TINY):
        for preset in PRESETS:
            out = OUT / "reference" / size.name / preset
            args = ["dither", "--preset", preset, *_sets(size.dither_protocol), "--out", str(out)]
            if cli.main(args) != 0:
                raise SystemExit(f"dither failed on {preset} ({size.name})")
            _, rows = read_csv(out / "series.csv")
            series[f"{size.name}/{preset}"] = _numbers(rows)[:, 1]
    np.savez_compressed(REFERENCE, **series)
    print(f"wrote {REFERENCE} ({len(series)} series)")


if __name__ == "__main__":
    main()
