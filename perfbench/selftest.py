"""Self-test of the benchmark: the checks pass on good output and catch bad.

    python3 perfbench/selftest.py

1. Runs ``run.main`` in this process on a smoke-size version of every
   workload (its ``DEFAULTS`` overridden by :data:`SMOKE`), untraced and
   traced, and requires ``correct: true``, no failed operation and every
   metric of ``BENCHMARK.json``.
2. Corrupts one output of each workload (a wrong sweep-cell figure, a
   changed round estimate, a flipped heavy hitter) and requires that it is
   reported as a failed operation.
3. Runs a traced ``gateway_ingest`` with its ``net`` probes removed and
   requires the layer-cost ledger check to report a failed operation.

Exits 0 when every step holds.  Takes about a minute and a half.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Smoke-size parameter overrides per workload.
SMOKE = {
    "paper_sweep": {"scale": "tiny", "datasets": ["uba"], "epsilons": [4.0], "ks": [5]},
    "gateway_ingest": {"users_per_round": 20000, "warmup_rounds": 1},
    "cluster_discovery": {"scale": "small", "inputs": 2},
}


@contextlib.contextmanager
def smoke_size(workload: str):
    """Run ``workload`` at its :data:`SMOKE` size while in the block."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    defaults = cls.DEFAULTS
    cls.DEFAULTS = {**defaults, **SMOKE[workload]}
    try:
        yield
    finally:
        cls.DEFAULTS = defaults


def run_main(workload: str, trace: int) -> dict:
    """The result line of one smoke-size ``run.main`` call."""
    import run

    out = io.StringIO()
    with smoke_size(workload), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_smoke_runs() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in SMOKE:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_main(workload, trace)
            names = [m["name"] for m in spec[section]]
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result}")
            if sorted(result["metrics"]) != sorted(names):
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            print(f"ok   {workload} trace={trace}: {result['attempted']} operations checked")
    return problems


def check_missing_probe() -> list[str]:
    """Without its ``net`` probes, ``gateway_ingest`` must fail the ledger."""
    import layers

    probes = layers.PROBES
    layers.PROBES = tuple(p for p in probes if not p[3].startswith("net."))
    try:
        result = run_main("gateway_ingest", 1)
    finally:
        layers.PROBES = probes
    if result["failed"] < 1 or result["metrics"]["unattributed_share"]["value"] <= layers.MAX_UNATTRIBUTED_SHARE:
        return [f"gateway_ingest without net probes: ledger check passed: {result}"]
    print(f"ok   gateway_ingest without net probes: ledger check failed {result['failed']} operation")
    return []


def check_tamper() -> list[str]:
    from workloads import ClusterDiscovery, GatewayIngest, PaperSweep, Window

    problems = []
    run_root = ROOT / ".perfbench_run"
    run_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_root, prefix="selftest-") as tmp:
        # paper_sweep: the second pass is checked against the first.
        sweep = PaperSweep({**PaperSweep.DEFAULTS, **SMOKE["paper_sweep"]}, Path(tmp))
        sweep.setup(3, telemetry=False)
        sweep.prepare_checks()
        window = Window()
        sweep._pass(sweep.settings, window, None)

        def wrong_f1(records):
            records = copy.deepcopy(records)
            records[0]["f1"] = records[0]["f1"] + 0.5
            return records

        sweep.tamper = wrong_f1
        sweep._pass(sweep.settings, window, None)
        problems += expect("paper_sweep wrong f1", window, failed=1)

        ingest = GatewayIngest({**GatewayIngest.DEFAULTS, **SMOKE["gateway_ingest"]}, Path(tmp))
        try:
            ingest.setup(3, telemetry=False)
            ingest.prepare_checks()

            def shifted(estimate):
                counts = estimate.estimated_counts.copy()
                counts[0] += 1.0
                return dataclasses.replace(estimate, estimated_counts=counts)

            ingest.tamper = shifted
            window = ingest.run_window(0.2)
            problems += expect("gateway_ingest changed estimate", window, failed=window.attempted)
        finally:
            ingest.teardown()

        discovery = ClusterDiscovery({**ClusterDiscovery.DEFAULTS, **SMOKE["cluster_discovery"]}, Path(tmp))
        try:
            discovery.setup(3, telemetry=False)
            discovery.prepare_checks()

            def flipped(result):
                result = copy.copy(result)
                result.heavy_hitters = [result.heavy_hitters[0] ^ 1] + result.heavy_hitters[1:]
                return result

            discovery.tamper = flipped
            window = discovery.run_window(0.1)
            problems += expect("cluster_discovery flipped heavy hitter", window, failed=window.attempted)
        finally:
            discovery.teardown()
    try:
        run_root.rmdir()
    except OSError:  # another run is using it
        pass
    return problems


def expect(label: str, window, *, failed: int) -> list[str]:
    if window.attempted < 1 or window.failed != failed:
        return [f"{label}: expected {failed} failed of {window.attempted}, got {window.failed}"]
    print(f"ok   {label}: reported as {window.failed} failed of {window.attempted}")
    return []


def main() -> int:
    problems = check_smoke_runs() + check_tamper() + check_missing_probe()
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
