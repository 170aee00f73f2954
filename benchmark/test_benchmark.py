"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest benchmark/test_benchmark.py

Every workload must run and emit every metric BENCHMARK.json names, the gates
must fail an op whose output is wrong, and the benchmark must refuse to run
without the toolkit's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from workloads import SERIES_RTOL, TINY, WORKLOADS, Dither, Photons, compare_series

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_benchmark(*args, root=HERE.parent):
    """Run the benchmark command from the root of a checkout, as its users do."""
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_emits_every_named_metric(workload, trace):
    done = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    record = json.loads(next(l for l in done.stdout.splitlines() if l.startswith("record "))[7:])
    assert {"cores", "cpu", "python", "numpy"} <= set(record["machine"])
    assert record["seed"] == 3 and len(record["ops_sha256"]) == 64


def test_same_seed_same_ops():
    for cls in WORKLOADS.values():
        workload = cls(TINY)
        ops = [op.text() for op in workload.make_pass(5, 2)]
        assert ops == [op.text() for op in workload.make_pass(5, 2)]
        if cls is not Dither:  # dither ops differ only in which preset comes first
            assert ops != [op.text() for op in workload.make_pass(6, 2)]


def test_series_gate_passes_reordering_and_fails_a_wrong_fast_path():
    reference = np.sin(np.linspace(0.0, 9.0, 1000)) * 8.7e-3
    assert compare_series(reference * (1 + 1e-15), reference) is None
    wrong = reference.copy()
    wrong[500] += 10 * SERIES_RTOL * np.abs(reference).max()
    assert compare_series(wrong, reference) is not None


def test_perturbed_reference_fails_the_dither_op():
    workload = Dither(TINY)
    (op,) = workload.make_pass(0, 0)
    assert workload.run_pass([op]).failed == 0
    perturbed = workload.reference[op.preset].copy()
    perturbed[123] *= 1 + 1e-9
    workload.reference[op.preset] = perturbed
    assert workload.run_pass([op]).failed == 1


def test_standard_error_gate_fails_without_sqrt_n_scaling():
    workload = Photons(TINY)
    ops = [op for op in workload.make_pass(0, 0) if op.command == "sample_photons"]
    rng = np.random.default_rng(0)
    unscaled = list(rng.normal(size=len(ops)))  # same spread at every photon count
    assert workload.check_pass(ops, unscaled) is not None
    scaled = [v / np.sqrt(op.photons) for v, op in zip(unscaled, ops)]
    assert workload.check_pass(ops, scaled) is None


def test_refuses_to_run_without_the_toolkit(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(
        "--workload", "dither", "--seed", "1", "--seconds", "1", "--trace", "0",
        root=tmp_path,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
