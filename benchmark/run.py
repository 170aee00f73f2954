#!/usr/bin/env python3
"""Benchmark of the nested-mzi-lab toolkit, end to end and layer by layer.

    python3 benchmark/run.py --workload dither|interactive|photons|all \\
        --seed N --seconds S --trace 0|1

One invocation runs one workload in this fresh, single-threaded process
(``all`` runs each workload in a fresh process of its own).  One caller
issues the workload's ops back to back (a closed loop), in whole passes over
the seeded op lists, for about ``--seconds``; every op's output is gated for
correctness.  Set-up is timed in separate fresh processes started between
passes, and reported as the median of several.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the last
line reports the per-layer metrics (per traced pass) plus the tracing
overhead.  Lines before the last one give the run record
(machine, seed, op-list hash, op counts) and a readable summary.  The exit
code is 0 only when every op passed its gate.
"""

import os

# One thread per process: set before numpy loads any threaded library.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("dither", "interactive", "photons")
#: Fresh processes timed for set-up; the median is reported.
SETUP_REPEATS = 7
#: op_p90_s leaves at least ten samples beyond it only from this many ops on.
P90_MIN_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MiB",
}
#: Functions whose calls and self time per pass are reported.
CALLS_AND_SELF = (
    "fields.propagate",
    "fields.make_gaussian",
    "elements.apply_tilt",
    "elements.apply_dove_x",
    "interferometer.detector_field_numeric",
    "interferometer.detector_field_analytic",
    "interferometer.field_before_F",
    "detection.split_signal",
    "detection.sample_photons",
)
SELF_ONLY = (
    "detection.run_dither",
    "detection.spectrum",
    "detection.photon_dither_experiment",
    "weak_values.weak_value_report",
    "cli.parse_config",
    "cli.run",
)
CALLS_ONLY = ("weak_values.effective_weak_value",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="nested-mzi-lab benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every pass; the benchmark's own tests use it",
    )
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe_setup(preset: str) -> float:
    """Set-up time of one fresh process: import, preset load, first engine call."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), preset],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def end_to_end(setup_samples, passes) -> dict[str, float]:
    times = [t for p in passes for t in p.times]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(p.wall for p in passes),
        "op_p50_s": statistics.median(times),
        "op_p90_s": float(np.percentile(times, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, traced_ops, untraced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes, each per pass, with units."""
    n = len(traced)
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        out[f"{name}.calls"] = (tracer.calls[name] / n, "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = (tracer.self_time[name] / n, "s")
    transforms = sum(tracer.counts[f"fft.{f}"] for f in ("fft", "ifft"))
    fields = sum(op.fields for op in traced_ops)
    samples = sum(op.fields for op in traced_ops if op.command in ("dither", "photons"))
    photons = sum(op.photons for op in traced_ops)
    out["fft.transforms"] = (transforms / n, "count")
    out["fft.transforms_per_field"] = (transforms / fields if fields else 0.0, "count/field")
    out["fft.self_s"] = (sum(tracer.self_time[f"fft.{f}"] for f in ("fft", "ifft")) / n, "s")
    run_dither = tracer.total["detection.run_dither"]
    out["detection.run_dither.s_per_sample"] = (run_dither / samples if samples else 0.0, "s/sample")
    sampling = tracer.total["detection.sample_photons"]
    out["detection.sample_photons.s_per_1e6"] = (sampling / photons * 1e6 if photons else 0.0, "s/1e6")
    out["interferometer.prefix_cache.hit_ratio"] = (tracer.hit_ratio("prefix"), "ratio")
    out["fields.transfer_cache.hit_ratio"] = (tracer.hit_ratio("transfer"), "ratio")
    out["cli.bytes_written"] = (sum(p.bytes_written for p in traced) / n, "B")
    overhead = statistics.fmean(p.wall for p in traced) / statistics.fmean(p.wall for p in untraced) - 1.0
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def call_table(tracer) -> list[str]:
    """Readable per-call means of every traced function, heaviest self time first."""
    lines = [f"{'function':44s} {'calls':>9s} {'total/call_us':>14s} {'self/call_us':>13s} {'self_s':>9s}"]
    for name in sorted(tracer.calls, key=lambda k: -tracer.self_time[k]):
        calls = tracer.calls[name]
        lines.append(
            f"{name:44s} {calls:9d} {tracer.total[name] / calls * 1e6:14.2f} "
            f"{tracer.self_time[name] / calls * 1e6:13.2f} {tracer.self_time[name]:9.4f}"
        )
    return lines


def run_one(args) -> int:
    from tracing import Tracer
    from workloads import OUT, SIZES, WORKLOADS, lab

    workload = WORKLOADS[args.workload](SIZES[args.size])
    preset = workload.first_preset(args.seed)
    setup_samples = [] if args.trace else [probe_setup(preset)]
    workload.prepare(args.seed)
    tracer = Tracer() if args.trace else None
    caches = {
        "prefix": [lab.interferometer._outer_prefix, lab.interferometer._reference_prefix],
        "transfer": [lab.fields._transfer_function],
    }

    digest = hashlib.sha256()
    untraced, traced, traced_ops = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if untraced and (traced or tracer is None):
            # A pass starts only while at least half of a typical one still fits.
            if elapsed + 0.5 * elapsed / index > args.seconds:
                break
            # Set-up probes are spread over the run, so they meet the same
            # machine load as the passes do.
            if tracer is None and len(setup_samples) < 1 + (SETUP_REPEATS - 1) * elapsed / args.seconds:
                setup_samples.append(probe_setup(preset))
        ops = workload.make_pass(args.seed, index)
        for op in ops:
            digest.update(op.text().encode() + b"\n")
        if tracer is not None and index % 2 == 1:
            tracer.install(caches)
            try:
                traced.append(workload.run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            traced_ops.extend(ops)
        else:
            untraced.append(workload.run_pass(ops))
        index += 1
    while tracer is None and len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(probe_setup(preset))

    passes = untraced + traced
    if tracer is not None:
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = per_layer(tracer, traced, traced_ops, untraced)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(setup_samples, passes).items()}

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    op_count = sum(len(p.times) for p in untraced)
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "cores": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ops_sha256": digest.hexdigest(),
        "passes": len(passes),
        "ops_timed": op_count,
        "op_p90_defined": op_count >= P90_MIN_OPS,
        "error_rate": failed / attempted,
    }
    print("record " + json.dumps(record))
    if tracer is not None:
        print("\n".join(call_table(tracer)))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:44s} {value:.6g} {unit}")
    print(f"{args.workload:12s} {'error_rate':44s} {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 and not lines:
            return done.returncode
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        status = status or done.returncode
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
