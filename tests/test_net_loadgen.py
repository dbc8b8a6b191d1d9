"""The multiprocess load generator: totals, backends, scenario replay."""

from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.cluster import run_loadgen
from repro.net import start_gateway
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="module")
def gateway():
    with start_gateway(decode_backend="thread", decode_workers=2) as handle:
        yield handle


def _tiny_scenario() -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": "loadgen-replay",
            "base": {"kind": "zipf", "n_items": 32, "n_bits": 8, "seed": 3},
            "n_steps": 4,
            "batch_size": 200,
            "k": 3,
        }
    )


class TestDatasetWorkloads:
    def test_totals_and_latency_summary(self, gateway):
        dataset = load_dataset("rdb", scale="tiny", seed=0)
        report = run_loadgen(
            gateway.address, dataset=dataset, level=4, batch_size=256,
            connections=3, rounds=2, backend="serial", seed=0,
        )
        assert report.connections == 3 and report.rounds == 2
        assert report.n_reports == sum(
            entry["n_reports"] for entry in report.per_connection
        )
        assert report.n_batches >= 3 * 2  # at least one batch per (pool, round)
        assert report.reports_per_sec > 0
        assert report.latency_ms["count"] == report.n_batches
        assert 0 < report.latency_ms["p50"] <= report.latency_ms["p99"]
        assert report.upload_bits > 0 and report.broadcast_bits > 0
        # Parties assign round-robin: 3 connections over a 2-party dataset.
        pools = [entry["pool"] for entry in report.per_connection]
        assert len(pools) == 3 and len(set(pools)) == 3
        for entry in report.per_connection:
            assert entry["top_prefixes"], "every pool reports estimated top prefixes"

    def test_wire_bits_are_seed_deterministic(self, gateway):
        kwargs = dict(
            dataset="rdb", scale="tiny", dataset_seed=0, level=4,
            batch_size=128, connections=2, rounds=1, seed=42,
        )
        first = run_loadgen(gateway.address, backend="serial", **kwargs)
        second = run_loadgen(gateway.address, backend="thread", **kwargs)
        # Timing differs; the bytes on the wire must not.
        assert first.upload_bits == second.upload_bits
        assert first.broadcast_bits == second.broadcast_bits
        assert [e["top_prefixes"] for e in first.per_connection] == [
            e["top_prefixes"] for e in second.per_connection
        ]

    def test_level_is_capped_at_the_workload_bits(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=64,
            connections=1, backend="serial", seed=0,
        )
        assert report.level == load_dataset("rdb", scale="tiny", seed=2025).n_bits

    def test_users_per_round_bounds_the_stream(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            connections=2, rounds=2, users_per_round=50,
            backend="serial", seed=1,
        )
        assert report.n_reports == 2 * 2 * 50

    def test_process_backend_spawns_real_client_processes(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            batch_size=256, connections=2, backend="process", max_workers=2,
            seed=3,
        )
        assert report.backend == "process"
        assert report.n_reports > 0
        assert report.latency_ms["count"] == report.n_batches

    def test_report_to_dict_is_json_safe(self, gateway):
        import json

        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            connections=1, backend="serial", seed=0,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["workload"] == "dataset:rdb"
        assert "latencies" not in payload["per_connection"][0]
        assert payload["gateway"]["upload_bits"] > 0
        assert "reports/s" in report.render()


class TestAdaptiveLoadgen:
    def test_adaptive_controller_drives_and_traces(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            connections=2, rounds=3, batch_size=256, backend="serial", seed=0,
            adaptive={"target_p95_ms": 500.0, "min_batch_size": 128,
                      "max_batch_size": 1024},
        )
        payload = report.to_dict()
        assert payload["adaptive"]["target_p95_ms"] == 500.0
        for entry in payload["per_connection"]:
            trace = entry["controller"]
            assert len(trace) == 3  # one decision per round
            for decision in trace:
                assert 128 <= decision["batch_size"] <= 1024
                assert decision["action"] in (
                    "probe", "increase", "decrease", "hold", "converged"
                )
        # The run is still complete and correct under moving batch sizes.
        assert report.n_reports == sum(
            entry["n_reports"] for entry in report.per_connection
        )

    def test_adaptive_off_keeps_report_shape_unchanged(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            connections=1, backend="serial", seed=0,
        )
        payload = report.to_dict()
        assert "adaptive" not in payload
        assert "controller" not in payload["per_connection"][0]

    def test_adaptive_wire_bytes_unchanged(self, gateway):
        """The controller only re-slices batches — bytes on the wire are
        batch-size-dependent (per-batch headers), but reports are not."""
        kwargs = dict(dataset="rdb", scale="tiny", dataset_seed=0, level=4,
                      connections=1, rounds=2, backend="serial", seed=5)
        fixed = run_loadgen(gateway.address, batch_size=256, **kwargs)
        adaptive = run_loadgen(
            gateway.address, batch_size=256, adaptive=True, **kwargs
        )
        assert adaptive.n_reports == fixed.n_reports

    def test_adaptive_rejects_junk(self, gateway):
        with pytest.raises(ValueError, match="adaptive"):
            run_loadgen(
                gateway.address, dataset="rdb", scale="tiny",
                connections=1, backend="serial", adaptive="turbo",
            )


class TestScenarioReplay:
    def test_each_connection_replays_the_arrival_stream(self, gateway):
        spec = _tiny_scenario()
        report = run_loadgen(
            gateway.address, scenario=spec, level=6, batch_size=300,
            connections=2, backend="serial", seed=0,
        )
        # 4 steps x 200 arrivals per replayed stream, per connection.
        assert report.n_reports == 2 * 4 * 200
        assert report.workload == "scenario:loadgen-replay"
        assert report.level == 6  # capped at the scenario's 8 bits, not below

    def test_scenario_replay_is_seed_deterministic(self, gateway):
        spec = _tiny_scenario()
        kwargs = dict(scenario=spec, level=5, connections=2, seed=9)
        first = run_loadgen(gateway.address, backend="serial", **kwargs)
        second = run_loadgen(gateway.address, backend="serial", **kwargs)
        assert first.upload_bits == second.upload_bits
        assert [e["top_prefixes"] for e in first.per_connection] == [
            e["top_prefixes"] for e in second.per_connection
        ]
