"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs an untraced window and then a traced window of the same
workload and prints the per-layer metrics, the trace overhead and the
layer-cost ledger.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it give
each metric by name with its unit, and the run's provenance.

Inputs are generated from ``--seed`` only.  Nothing is written anywhere
except ``--out`` (a new file: the full result with provenance, and the
span records of a traced run) and a scratch directory for the shard
processes' ready files and logs, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How many complete set-ups a run times; ``setup_s`` is their median.
N_SETUPS = 3

#: End-to-end metrics: name -> unit (``BENCHMARK.json`` holds the bounds).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "cpu_ms_per_op": "ms",
    "reports_per_cpu_s": "1/s",
    "f1_mean": "ratio",
    "upload_bits_per_report": "bits",
}


def fail(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full result (and spans) to this new JSON file")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC.resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args, params: dict) -> dict:
    import numpy as np
    from repro.perf.calibrate import calibrate

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "calibration": calibrate().to_dict(),
    }


def end_to_end(window, setup_cpu_s: list[float], workload) -> dict:
    """The end-to-end metrics; times are CPU seconds of the system."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_cpu_s),
        "peak_rss_mb": self_kb / 1024.0 + workload.child_peak_rss_mb,
        "success_rate": (window.attempted - window.failed) / window.attempted,
        "cpu_ms_per_op": window.cpu_s * 1e3 / len(window.op_s),
        "reports_per_cpu_s": window.reports / window.cpu_s,
        "f1_mean": statistics.fmean(window.f1),
        "upload_bits_per_report": window.upload_bits / max(window.reports, 1),
    }


def wall_clock(window, setup_wall_s: list[float]) -> dict:
    """Wall-clock figures of an untraced window (no bounds: see README)."""
    from layers import percentile

    return {
        "wall.setup_s": statistics.median(setup_wall_s),
        "wall.ops_per_s": len(window.op_s) / window.busy_s,
        "wall.op_s_p50": statistics.median(window.op_s),
        "wall.reports_per_s": window.reports / window.busy_s,
        "wall.ack_ms_p50": percentile(window.ack_ms, 50),
        "wall.ack_ms_p99": percentile(window.ack_ms, 99),
        "wall.cpu_per_wall": window.cpu_s / window.busy_s,
    }


def per_layer(trace_records: list[dict], traced, untraced) -> dict:
    from layers import layer_ledger, summarize, with_self_times

    spans = with_self_times([s for s in trace_records if s["phase"] in ("setup", "traced")])
    window_spans = [s for s in spans if s["phase"] == "traced"]
    s = summarize(spans)
    w = summarize(window_spans)

    def get(table, name, key):
        return float(table.get(name, {}).get(key, 0))

    ledger = layer_ledger(window_spans, traced.threads)
    gateway = traced.layers.get("gateway", {})
    cluster = traced.layers.get("cluster", {})
    routed = cluster.get("routed", [0, 0])
    per_op_untraced = untraced.cpu_s / max(untraced.attempted, 1)
    per_op_traced = traced.cpu_s / max(traced.attempted, 1)
    metrics = {
        "datasets.load_ms": get(s, "datasets.load", "busy_ms"),
        "experiments.cell_ms_p50": get(w, "experiments.cell", "p50_ms"),
        "experiments.cells": get(s, "experiments.cell", "count"),
        "core.fo_round.self_ms": get(s, "core.fo_round", "self_ms"),
        "core.fo_rounds": get(s, "core.fo_round", "count"),
        "core.extension_ms": get(s, "core.extension", "busy_ms"),
        "core.extension_calls": get(s, "core.extension", "count"),
        "core.pruning_ms": get(s, "core.pruning", "busy_ms"),
        "core.pruning_calls": get(s, "core.pruning", "count"),
        "ldp.round_ms": get(s, "ldp.round", "busy_ms"),
        "ldp.rounds": get(s, "ldp.round", "count"),
        "ldp.budget.record_ms": get(s, "ldp.budget.record", "busy_ms"),
        "ldp.budget.merge_ms": get(s, "ldp.budget.merge", "busy_ms"),
        "ldp.budget.reports": get(s, "ldp.budget.record", "n"),
        "metrics.evaluate_ms": get(s, "metrics.evaluate", "busy_ms"),
        "service.round_ms_p50": get(w, "service.round", "p50_ms"),
        "service.round_ms_p99": get(w, "service.round", "p99_ms"),
        "service.rounds": get(s, "service.round", "count"),
        "service.perturb_ms": get(s, "service.perturb", "busy_ms"),
        "service.encode_ms": get(s, "service.encode", "busy_ms"),
        "service.wire_bytes": get(s, "service.encode", "n"),
        "net.open_round_ms": get(s, "net.open_round", "busy_ms"),
        "net.send_batch_ms": get(s, "net.send_batch", "busy_ms"),
        "net.finalize_ms": get(s, "net.finalize", "busy_ms"),
        "net.batches": get(s, "net.send_batch", "count"),
        "net.gateway.batch_ms_p50": float(gateway.get("batch_ms_p50", 0.0)),
        "net.gateway.batch_ms_p99": float(gateway.get("batch_ms_p99", 0.0)),
        "net.gateway.batches": float(gateway.get("batches", 0)),
        "net.gateway.reports": float(gateway.get("reports", 0)),
        "net.gateway.frames_rejected": float(gateway.get("frames_rejected", 0)),
        "net.gateway.errors": float(gateway.get("errors", 0)),
        "cluster.open_round_ms": get(s, "cluster.open_round", "busy_ms"),
        "cluster.send_batch_ms": get(s, "cluster.send_batch", "busy_ms"),
        "cluster.finalize_ms": get(s, "cluster.finalize", "busy_ms"),
        "cluster.merge_barrier_ms": float(cluster.get("merge_barrier_ms", 0.0)),
        "cluster.batches_routed.0": float(routed[0]),
        "cluster.batches_routed.1": float(routed[1]),
        "bench.check_ms": get(w, "bench.check", "busy_ms"),
        "trace.spans": float(len(window_spans)),
        "trace.span_errors": float(sum(v["errors"] for v in w.values())),
        "unattributed_ms": ledger["unattributed_ms"],
        "unattributed_share": ledger["unattributed_share"],
        "trace_overhead": per_op_traced / per_op_untraced - 1.0,
    }
    return metrics, ledger, {"setup_and_window": s, "window": w}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, read from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.out is not None and Path(args.out).exists():
        fail(f"--out {args.out} exists; results never overwrite a file")
    import_program()
    sys.path.insert(0, str(HERE))
    from layers import MAX_UNATTRIBUTED_SHARE, LayerTrace
    from workloads import WORKLOADS, cpu_ticks, steal_share

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    params = dict(cls.DEFAULTS)

    # SIGTERM unwinds through the finally blocks, which stop the shards.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = cls(params, run_dir)
    trace = None
    try:
        setup_wall_s, setup_cpu_s = [], []
        for i in range(N_SETUPS):
            workload.teardown()
            if args.trace and i == N_SETUPS - 1:
                trace = LayerTrace()
                trace.install()
            t0, c0 = time.perf_counter(), workload.system_cpu_s()
            workload.setup(args.seed, telemetry=bool(args.trace))
            setup_cpu_s.append(workload.system_cpu_s() - c0)
            setup_wall_s.append(time.perf_counter() - t0)
        if args.trace:
            trace.restore()
        workload.prepare_checks()
        ticks = cpu_ticks()
        untraced = workload.run_window(args.seconds)
        steal = steal_share(ticks, cpu_ticks())
        windows = [untraced]
        if args.trace:
            trace.phase = "traced"
            trace.install()
            traced = workload.run_window(args.seconds, trace)
            trace.restore()
            windows.append(traced)
    finally:
        if trace is not None:
            trace.restore()
        workload.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    wall = wall_clock(untraced, setup_wall_s)
    if not args.trace:
        metrics = end_to_end(untraced, setup_cpu_s, workload)
        units = END_TO_END
        detail = {"error_rate": untraced.failed / untraced.attempted,
                  "ops": len(untraced.op_s), "ack_samples": len(untraced.ack_ms),
                  "busy_s": untraced.busy_s, "cpu_s": untraced.cpu_s,
                  "steal_share": steal, "setup_cpu_s": setup_cpu_s,
                  "setup_wall_s": setup_wall_s, **wall}
    else:
        records = trace.records()
        metrics, ledger, layers_detail = per_layer(records, traced, untraced)
        metrics.update(wall)
        units = per_layer_units()
        if ledger["unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
            traced.fail(f"spans explain too little of the traced window: {ledger}")
        detail = {"ledger": ledger, "layers": layers_detail,
                  "untraced_ops": len(untraced.op_s), "traced_ops": len(traced.op_s)}

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    problems = [p for w in windows for p in w.problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    prov = provenance(args, params)
    for name in units:
        print(f"{name:32s} {metrics[name]:>16.6g} {units[name]}")
    print("detail " + json.dumps(detail, default=str, sort_keys=True))
    if args.workload == "paper_sweep":
        prov["digest_source"] = workload.reference_source
    print("provenance " + json.dumps(prov, sort_keys=True))
    for message in problems:
        print(f"FAILED: {message}")
    if args.out is not None:
        document = {"result": result, "provenance": prov, "detail": detail,
                    "problems": problems}
        if args.trace:
            document["spans"] = records
        with open(args.out, "x", encoding="utf-8") as fp:
            json.dump(document, fp, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
