"""The three benchmark workloads.

Each workload builds every input from the seed and starts the system in
:meth:`~Workload.setup` (timed), computes the references its outputs are
checked against in :meth:`~Workload.prepare_checks` (untimed), and runs
closed-loop operations for a time window in :meth:`~Workload.run_window`,
checking each operation's output.  An operation is a sweep cell
(``paper_sweep``), a replayed round (``gateway_ingest``) or a full
discovery (``cluster_discovery``); a wrong output is a failed operation.
Each operation is timed twice: in wall seconds, and in CPU seconds of the
system under test (:meth:`Workload.system_cpu_s`: this process and the
gateway processes it launched).

``tamper`` (used by ``selftest.py`` only) corrupts one output before it
is checked, to prove that the checks catch it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import experiments
from repro.cluster import coordinator as cluster_coordinator
from repro.cluster.launcher import launch_cluster
from repro.core import base as core_base
from repro.core import estimation as core_estimation
from repro.ldp.registry import make_oracle
from repro.metrics.scores import f1_score
from repro.net.client import GatewayConnection
from repro.obs.registry import histogram_quantile
from repro.service import clients as service_clients
from repro.service import protocol as service_protocol
from repro.service.server import AggregationServer, run_in_service_mode
from repro.trie.candidate_domain import CandidateDomain

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "paper_sweep_digests.json"

CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, every thread) that process ``pid`` has used."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the machine's CPU time stolen by the host between two
    :func:`cpu_ticks` readings."""
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def cpu_ticks() -> list[int]:
    """The machine-wide CPU time counters of ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fp:
        return [int(x) for x in fp.readline().split()[1:9]]


@dataclass
class Window:
    """What one measurement window did and how much of it was right.

    ``busy_s`` is wall seconds spent in operations and ``cpu_s`` the CPU
    seconds the system used for them; the benchmark's checks are excluded
    from both.
    """

    busy_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)  # wall seconds per operation
    ack_ms: list = field(default_factory=list)
    reports: int = 0
    upload_bits: int = 0
    f1: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    threads: dict = field(default_factory=dict)  # thread id -> (t0, t1)
    layers: dict = field(default_factory=dict)  # scraped per-layer figures

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def raise_on_failure(self) -> None:
        """Warm-up operations must not fail: stop before measuring."""
        if self.failed:
            raise RuntimeError(f"warm-up failed: {self.problems}")


class Patch:
    """Temporarily replace ``owner.attr`` with ``make(original)``."""

    def __init__(self, owner, attr: str, make):
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = self.owner.__dict__[self.attr]
        setattr(self.owner, self.attr, self.make(self.original))
        return self

    def __exit__(self, *exc_info):
        setattr(self.owner, self.attr, self.original)


def _bench_span(trace, name: str = "bench.check"):
    """A span around the benchmark's own work (traced run only)."""
    if trace is None:
        return contextlib.nullcontext()
    return trace.span(name)


def shard_peak_rss_mb(handle) -> float:
    """Sum of the shard processes' peak resident set sizes (``VmHWM``)."""
    total_kb = 0
    for shard in handle.shards:
        try:
            status = Path(f"/proc/{shard.process.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Workload:
    """Base: set-up/teardown bookkeeping shared by the workloads."""

    name = "workload"

    def __init__(self, params: dict, run_dir: Path):
        self.params = dict(params)
        self.run_dir = run_dir
        self.tamper = None
        self.child_peak_rss_mb = 0.0
        self.handle = None

    def setup(self, seed: int, *, telemetry: bool) -> None:
        """Build the inputs and start the system (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute the references outputs are checked against (untimed)."""

    def system_cpu_s(self) -> float:
        """CPU seconds used so far by this process and its shard processes.

        CPU time leaves out the time the host's other tenants take from
        this machine and the time the system waits, so it is steadier than
        wall time on a shared machine.
        """
        total = time.process_time()
        if self.handle is not None:
            total += sum(process_cpu_s(shard.process.pid) for shard in self.handle.shards)
        return total

    def run_window(self, seconds: float, trace=None) -> Window:
        raise NotImplementedError

    def launch(self, n_shards: int, *, telemetry: bool):
        """Start the shard gateways as separate processes, as in production."""
        spec_path = None
        if telemetry:
            spec_path = self.run_dir / "gateway-spec.json"
            spec_path.write_text(json.dumps({"gateway": {"telemetry_sample": 1.0}}))
        self.handle = launch_cluster(
            n_shards, run_dir=self.run_dir / f"shards-{time.monotonic_ns()}",
            spec_path=None if spec_path is None else str(spec_path),
        )
        return self.handle

    def teardown(self) -> None:
        if self.handle is not None:
            self.child_peak_rss_mb = max(self.child_peak_rss_mb, shard_peak_rss_mb(self.handle))
            try:
                self.handle.shutdown()
            finally:
                shutil.rmtree(self.handle.run_dir, ignore_errors=True)
                self.handle = None


def scrape(addresses) -> list[dict]:
    """Every shard's wire-scraped metrics document."""
    docs = []
    for address in addresses:
        with GatewayConnection(address) as conn:
            docs.append(conn.metrics())
    return docs


def _counter(doc: dict, prefix: str) -> int:
    return sum(v for k, v in doc["metrics"]["counters"].items() if k.split("{")[0] == prefix)


def gateway_delta(before: list[dict], after: list[dict]) -> dict:
    """Gateway telemetry accrued between two scrapes, summed over shards."""
    out = {"batches": 0, "reports": 0, "frames_rejected": 0, "errors": 0, "upload_bits": 0}
    merged = None
    for b, a in zip(before, after):
        out["batches"] += _counter(a, "gateway_batches_ingested_total") - _counter(b, "gateway_batches_ingested_total")
        out["reports"] += _counter(a, "gateway_reports_ingested_total") - _counter(b, "gateway_reports_ingested_total")
        out["frames_rejected"] += _counter(a, "gateway_frames_rejected_total") - _counter(b, "gateway_frames_rejected_total")
        out["errors"] += _counter(a, "gateway_errors_total") - _counter(b, "gateway_errors_total")
        out["upload_bits"] += _counter(a, "service_upload_bits_total") - _counter(b, "service_upload_bits_total")
        ha = a["metrics"]["histograms"].get("gateway_batch_ms")
        hb = b["metrics"]["histograms"].get("gateway_batch_ms") or {"buckets": {}, "count": 0}
        if ha is None:
            continue
        buckets = {e: n - int(hb["buckets"].get(e, 0)) for e, n in ha["buckets"].items()}
        if merged is None:
            merged = {"buckets": {}, "count": 0, "min": None, "max": None}
        for e, n in buckets.items():
            merged["buckets"][e] = merged["buckets"].get(e, 0) + n
        merged["count"] += int(ha["count"]) - int(hb["count"])
    if merged is not None and merged["count"] > 0:
        merged["buckets"] = {e: merged["buckets"][e] for e in sorted(merged["buckets"], key=int)}
        out["batch_ms_p50"] = histogram_quantile(merged, 0.50)
        out["batch_ms_p99"] = histogram_quantile(merged, 0.99)
    return out


# ---------------------------------------------------------------------- #
# paper_sweep
# ---------------------------------------------------------------------- #
def cell_digest(record: dict) -> str:
    """Digest of one sweep cell's utility and cost figures."""
    text = "|".join(
        repr(record[key])
        for key in ("dataset", "mechanism", "epsilon", "k", "f1", "ncr", "communication_bits")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def sweep_grid(params: dict) -> dict:
    """The parameters a stored digest depends on."""
    keys = ("datasets", "scale", "mechanisms", "epsilons", "ks", "oracle", "granularity")
    return {key: params[key] for key in keys}


def sweep_settings(params: dict, seed: int):
    """The ``run_sweep`` settings of the ``paper_sweep`` grid."""
    return experiments.ExperimentSettings(
        scale=params["scale"], repetitions=1, granularity=params["granularity"],
        oracle=params["oracle"], seed=seed, epsilons=tuple(params["epsilons"]),
        ks=tuple(params["ks"]), datasets=tuple(params["datasets"]),
        mechanisms=tuple(params["mechanisms"]), backend=params["backend"],
    )


class PaperSweep(Workload):
    """``run_sweep`` over the Figure 4/5 grid, in memory, serial backend."""

    name = "paper_sweep"
    DEFAULTS = {
        "datasets": ["uba", "tys"],
        "scale": "small",
        "mechanisms": ["gtf", "fedpem", "taps"],
        "epsilons": [1.0, 2.0, 3.0, 4.0, 5.0],
        "ks": [10, 40],
        "oracle": "krr",
        "granularity": 6,
        "backend": "serial",
    }

    def setup(self, seed: int, *, telemetry: bool) -> None:
        p = self.params
        self.settings = sweep_settings(p, seed)
        self.seed = seed
        for name in p["datasets"]:
            repro.load_dataset(name, scale=p["scale"], seed=seed)
        # Warm-up: one cell per mechanism, through the measured path.
        warm = self.settings.with_updates(
            datasets=tuple(p["datasets"][:1]), epsilons=(4.0,), ks=tuple(p["ks"][:1])
        )
        warm_window = Window()
        self._pass(warm, warm_window, None, check_digests=False)
        warm_window.raise_on_failure()

    def prepare_checks(self) -> None:
        self.reference = None
        if DIGESTS_PATH.exists():
            stored = json.loads(DIGESTS_PATH.read_text())
            if stored["grid"] == sweep_grid(self.params) and str(self.seed) in stored["seeds"]:
                self.reference = stored["seeds"][str(self.seed)]
        self.reference_source = "stored" if self.reference is not None else "first_pass"

    def _pass(self, settings, window: Window, trace, *, check_digests=True) -> None:
        """One ``run_sweep`` call; per-cell results are checked as they finish."""
        outcomes = []
        rounds_ms: list[float] = []
        overhead = [0.0, 0.0]  # wall and CPU seconds of the checks

        def observe_run(run):
            def wrapper(mech, dataset, rng=None):
                t0 = time.perf_counter()
                result = run(mech, dataset, rng)
                t1, c1 = time.perf_counter(), time.process_time()
                with _bench_span(trace):
                    accountant = result.accountant
                    outcomes.append({
                        "run_s": t1 - t0,
                        "ldp_ok": accountant.satisfies_ldp(),
                        "reports": accountant.n_reports(),
                        "upload_bits": result.upload_bits(),
                    })
                overhead[0] += time.perf_counter() - t1
                overhead[1] += time.process_time() - c1
                return result
            return wrapper

        def time_round(run_round):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return run_round(*args, **kwargs)
                finally:
                    rounds_ms.append((time.perf_counter() - t0) * 1e3)
            return wrapper

        with Patch(core_base.FederatedMechanism, "run", observe_run), \
                Patch(core_estimation.DirectRoundRunner, "run_round", time_round):
            t0, c0 = time.perf_counter(), self.system_cpu_s()
            sweep = experiments.run_sweep(settings)
            window.busy_s += time.perf_counter() - t0 - overhead[0]
            window.cpu_s += self.system_cpu_s() - c0 - overhead[1]
        window.ack_ms += rounds_ms
        records = sweep.records
        if self.tamper is not None:
            records = self.tamper(records)
        digests = [cell_digest(r) for r in records]
        if check_digests and self.reference is None:
            self.reference = digests
        for i, (record, outcome) in enumerate(zip(records, outcomes)):
            window.attempted += 1
            window.op_s.append(outcome["run_s"])
            window.reports += outcome["reports"]
            window.upload_bits += outcome["upload_bits"]
            window.f1.append(record["f1"])
            cell = f"{record['mechanism']}/{record['dataset']}/eps={record['epsilon']}/k={record['k']}"
            if not outcome["ldp_ok"]:
                window.fail(f"{cell}: accountant fails satisfies_ldp()")
            elif check_digests and digests[i] != self.reference[i]:
                window.fail(f"{cell}: digest {digests[i]} != reference {self.reference[i]}")
        if len(outcomes) != len(records):
            window.fail(f"{len(records)} records but {len(outcomes)} mechanism runs")

    def run_window(self, seconds: float, trace=None) -> Window:
        window = Window()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self._pass(self.settings, window, trace)
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
        window.threads[threading.get_ident()] = (start, time.perf_counter())
        return window


# ---------------------------------------------------------------------- #
# gateway_ingest
# ---------------------------------------------------------------------- #
def top_k(counts: np.ndarray, k: int) -> list[int]:
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    return order[:k]


class GatewayIngest(Workload):
    """Two client threads replay pre-encoded k-RR batches into one gateway."""

    name = "gateway_ingest"
    DEFAULTS = {
        "dataset": "uba",
        "scale": "small",
        "level": 6,
        "oracle": "krr",
        "epsilon": 4.0,
        "users_per_round": 200_000,
        "batch_size": 4096,
        "clients": 2,
        "top_k": 10,
        "warmup_rounds": 2,
    }

    def setup(self, seed: int, *, telemetry: bool) -> None:
        p = self.params
        handle = self.launch(1, telemetry=telemetry)
        dataset = repro.load_dataset(p["dataset"], scale=p["scale"], seed=seed)
        items = np.concatenate([party.items for party in dataset.parties])
        domain = CandidateDomain.full_domain(p["level"])
        oracle = make_oracle(p["oracle"], p["epsilon"])
        self.streams = []
        for client in range(p["clients"]):
            party = f"client-{client}"
            gen = np.random.default_rng([seed, client])
            users = gen.integers(0, items.size, size=p["users_per_round"])
            values = domain.encode_items(items[users], dataset.n_bits)
            payloads = [
                service_protocol.encode_report_batch(batch)
                for batch in service_clients.iter_perturbed_batches(
                    oracle, values, domain.size, gen, batch_size=p["batch_size"],
                    party=party, level=p["level"],
                )
            ]
            truth = np.bincount(values, minlength=domain.size)[: domain.n_candidates]
            self.streams.append({
                "oracle": oracle,
                "domain": domain,
                "broadcast": service_protocol.RoundBroadcast(
                    party=party, level=p["level"], oracle_name=oracle.name,
                    epsilon=oracle.epsilon, domain_size=domain.size,
                    prefixes=tuple(domain.prefixes),
                ),
                "payloads": payloads,
                "bits": sum(service_protocol.wire_bits(x) for x in payloads),
                "truth_top": top_k(truth, p["top_k"]),
                "n_candidates": domain.n_candidates,
            })
        self.connections = [GatewayConnection(handle.address) for _ in self.streams]
        self.sent = {"batches": 0, "reports": 0, "upload_bits": 0}
        self.baseline = scrape(handle.addresses)
        for _ in range(p["warmup_rounds"]):
            for conn, stream in zip(self.connections, self.streams):
                self._round(conn, stream)
                self._count_sent(stream)

    def prepare_checks(self) -> None:
        """The estimate an in-process server makes of each replayed stream."""
        for stream in self.streams:
            server = AggregationServer()
            party, level = stream["broadcast"].party, stream["broadcast"].level
            rid = server.open_round(
                party=party, level=level, oracle=stream["oracle"], domain=stream["domain"]
            )
            for payload in stream["payloads"]:
                server.ingest(rid, payload)
            stream["reference"] = server.finalize_round(rid)

    def teardown(self) -> None:
        for conn in getattr(self, "connections", []):
            conn.close()
        self.connections = []
        super().teardown()

    @staticmethod
    def _round(conn, stream) -> tuple[float, object]:
        """Replay one round; returns its wall time and the gateway's estimate."""
        t0 = time.perf_counter()
        round_id, _ = conn.open_round(stream["broadcast"])
        for payload in stream["payloads"]:
            conn.send_batch(round_id, payload)
        estimate = conn.finalize(round_id)
        return time.perf_counter() - t0, estimate

    def _count_sent(self, stream) -> None:
        self.sent["batches"] += len(stream["payloads"])
        self.sent["reports"] += self.params["users_per_round"]
        self.sent["upload_bits"] += stream["bits"]

    def _tally(self, window: Window, stream, elapsed: float, estimate) -> None:
        """Count one window round and check its estimate."""
        self._count_sent(stream)
        if self.tamper is not None:
            estimate = self.tamper(estimate)
        ref = stream["reference"]
        counts = np.asarray(estimate.estimated_counts)[: stream["n_candidates"]]
        window.attempted += 1
        window.op_s.append(elapsed)
        window.f1.append(f1_score(top_k(counts, self.params["top_k"]), stream["truth_top"]))
        window.reports += self.params["users_per_round"]
        window.upload_bits += stream["bits"]
        if not (
            estimate.n_users == ref.n_users
            and np.array_equal(estimate.estimated_counts, ref.estimated_counts)
            and np.array_equal(estimate.estimated_frequencies, ref.estimated_frequencies)
        ):
            window.fail(f"{stream['broadcast'].party}: estimate differs from in-process server")

    def run_window(self, seconds: float, trace=None) -> Window:
        """Closed-loop rounds from every client until ``seconds`` have passed."""
        window = Window()
        records = [[] for _ in self.connections]
        marks = [len(conn.latencies) for conn in self.connections]
        errors = []
        ends = []

        def client(i):
            conn, stream = self.connections[i], self.streams[i]
            t0 = time.perf_counter()
            try:
                while time.perf_counter() < deadline:
                    records[i].append(self._round(conn, stream))
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                errors.append(f"{type(exc).__name__}: {exc}")
            ends.append(time.perf_counter())
            window.threads[threading.get_ident()] = (t0, ends[-1])

        before = scrape(self.handle.addresses)
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(self.connections))]
        start, cpu_start = time.perf_counter(), self.system_cpu_s()
        deadline = start + seconds
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window.cpu_s = self.system_cpu_s() - cpu_start
        window.busy_s = max(ends) - start
        for i, stream in enumerate(self.streams):
            for elapsed, estimate in records[i]:
                self._tally(window, stream, elapsed, estimate)
            window.ack_ms.extend(x * 1e3 for x in self.connections[i].latencies[marks[i]:])
        for message in errors:
            window.attempted += 1
            window.fail(message)
        after = scrape(self.handle.addresses)
        with _bench_span(trace):
            total = gateway_delta(self.baseline, after)
            for key in ("batches", "reports", "upload_bits"):
                if total[key] != self.sent[key]:
                    window.fail(f"gateway counted {total[key]} {key}, clients sent {self.sent[key]}")
        window.layers["gateway"] = gateway_delta(before, after)
        return window


# ---------------------------------------------------------------------- #
# cluster_discovery
# ---------------------------------------------------------------------- #
def derived_seed(seed: int, index: int) -> int:
    """A distinct 32-bit seed for input ``index`` of run ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class ClusterDiscovery(Workload):
    """Full TAPS discoveries over a 2-shard gateway cluster.

    TAPS adapts its candidate domains to the data and the noise, so the
    cost, wire bits and F1 of one discovery vary with its input by ~10 %.
    A run therefore discovers ``inputs`` distinct (dataset, seed) pairs
    derived from ``--seed``, in whole cycles, and reports over all of them.
    """

    name = "cluster_discovery"
    DEFAULTS = {
        "dataset": "uba",
        "scale": "large",
        "mechanism": "taps",
        "oracle": "oue",
        "epsilon": 4.0,
        "k": 20,
        "granularity": 6,
        "shards": 2,
        "party_backend": "serial",
        "inputs": 5,
        "warmup_discoveries": 1,
    }

    def setup(self, seed: int, *, telemetry: bool) -> None:
        p = self.params
        self.inputs = []
        for index in range(p["inputs"]):
            dataset = repro.load_dataset(
                p["dataset"], scale=p["scale"], seed=derived_seed(seed, index)
            )
            config = repro.MechanismConfig(
                k=p["k"], epsilon=p["epsilon"], n_bits=dataset.n_bits,
                granularity=p["granularity"], oracle=p["oracle"],
                backend=p["party_backend"],
            )
            self.inputs.append({
                "dataset": dataset,
                "mechanism": experiments.build_mechanism(p["mechanism"], config),
                "rng": derived_seed(seed, p["inputs"] + index),
            })
        handle = self.launch(p["shards"], telemetry=telemetry)
        self.address = handle.address
        for index in range(p["warmup_discoveries"]):
            self._run(self.inputs[index % len(self.inputs)])

    def prepare_checks(self) -> None:
        """Each input's in-process ``execution_mode="service"`` result."""
        for case in self.inputs:
            reference = run_in_service_mode(case["mechanism"], case["dataset"], rng=case["rng"])
            case["heavy_hitters"] = reference.heavy_hitters
            case["estimated_counts"] = reference.estimated_counts
            case["upload_bits"] = reference.upload_bits()

    def _run(self, case):
        return cluster_coordinator.run_over_cluster(
            case["mechanism"], case["dataset"], self.address, rng=case["rng"]
        )

    def _discovery(self, window: Window, trace, case) -> None:
        """One checked discovery of ``case``."""
        t0, c0 = time.perf_counter(), self.system_cpu_s()
        result = self._run(case)
        elapsed = time.perf_counter() - t0
        window.cpu_s += self.system_cpu_s() - c0
        with _bench_span(trace):
            if self.tamper is not None:
                result = self.tamper(result)
            window.attempted += 1
            window.op_s.append(elapsed)
            window.reports += result.accountant.n_reports()
            window.upload_bits += result.upload_bits()
            window.f1.append(
                experiments.evaluate_run(result, case["dataset"], self.params["k"])["f1"]
            )
            if result.heavy_hitters != case["heavy_hitters"]:
                window.fail("heavy hitters differ from the in-process service run")
            elif result.estimated_counts != case["estimated_counts"]:
                window.fail("estimated counts differ from the in-process service run")
            elif result.upload_bits() != case["upload_bits"]:
                window.fail("upload bits differ from the in-process service run")
            elif not result.accountant.satisfies_ldp():
                window.fail("accountant fails satisfies_ldp()")

    def run_window(self, seconds: float, trace=None) -> Window:
        window = Window()
        conns: list = []
        barrier_ms: list = []
        routed = [0] * self.params["shards"]

        def capture(init):
            def wrapper(conn, *args, **kwargs):
                init(conn, *args, **kwargs)
                conns.append(conn)
            return wrapper

        before = scrape(self.handle.addresses)
        start = time.perf_counter()
        with Patch(cluster_coordinator.ClusterConnection, "__init__", capture):
            while True:  # whole cycles over the inputs, at least one
                cycle_start = time.perf_counter()
                for case in self.inputs:
                    self._discovery(window, trace, case)
                    window.ack_ms.extend(x * 1e3 for x in self._collect(conns, barrier_ms, routed))
                cycle = time.perf_counter() - cycle_start
                if time.perf_counter() - start + cycle > seconds:
                    break
        window.threads[threading.get_ident()] = (start, time.perf_counter())
        window.busy_s = sum(window.op_s)
        after = scrape(self.handle.addresses)
        window.layers["gateway"] = gateway_delta(before, after)
        window.layers["cluster"] = {"merge_barrier_ms": float(sum(barrier_ms)), "routed": routed}
        return window

    @staticmethod
    def _collect(conns: list, barrier_ms: list, routed: list) -> list[float]:
        """Coordinator telemetry and ack latencies of the last discovery."""
        latencies = []
        for conn in conns:
            snap = conn.telemetry.snapshot()
            hist = snap["histograms"].get("cluster_merge_barrier_ms")
            if hist:
                barrier_ms.append(hist["sum"])
            for key, value in snap["counters"].items():
                if key.startswith("cluster_batches_routed_total"):
                    routed[int(key.split("shard=")[1].rstrip("}"))] += value
            latencies.extend(conn.latencies)
        conns.clear()
        return latencies


WORKLOADS = {cls.name: cls for cls in (PaperSweep, GatewayIngest, ClusterDiscovery)}
