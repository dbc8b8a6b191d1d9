"""Outside-in layer tracing for the traced benchmark run.

The program itself carries no benchmark instrumentation.  Instead,
:class:`LayerTrace` replaces a fixed list of public entry points of the
``repro`` layers (:data:`PROBES`) with thin wrappers that record one
:class:`repro.obs.trace.Tracer` span per call, so the benchmark's spans
share the record schema of the gateway and cluster telemetry.  A
per-thread stack links every span to the span that caused it.  Spans stay
in memory until the run ends.

:func:`with_self_times` and :func:`summarize` turn the span records into
the per-layer metrics: busy time, self time (duration minus the part of
the interval that child spans cover), counts and percentiles;
:func:`layer_ledger` draws up the layer-cost ledger of the blocking path.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

from repro.obs.registry import quantiles
from repro.obs.trace import Tracer


def _count_users(args, kwargs, result):
    """Users reporting in ``estimate_on_users`` / ``PrivacyAccountant.record``."""
    users = args[1] if len(args) > 1 else kwargs.get("user_ids", kwargs.get("user_indices"))
    return len(users)


def _count_payload_bytes(args, kwargs, result):
    """Wire bytes of ``send_batch(round_id, payload)``."""
    payload = args[2] if len(args) > 2 else kwargs["payload"]
    return len(payload)


def _count_result_bytes(args, kwargs, result):
    """Wire bytes ``encode_report_batch`` produced (none when it raised)."""
    return None if result is None else len(result)


#: The layer entry points the traced run wraps: (module, class or None,
#: attribute, span name, counter over the call's arguments and result,
#: or None).
#: Functions imported into other ``repro`` modules are wrapped there too.
PROBES: tuple = (
    ("repro.datasets.registry", None, "load_dataset", "datasets.load", None),
    ("repro.experiments.runner", None, "run_cell", "experiments.cell", None),
    ("repro.core.estimation", "PartyEstimator", "estimate_on_users", "core.fo_round", _count_users),
    ("repro.core.estimation", "PartyEstimator", "select_extension", "core.extension", None),
    ("repro.core.pruning", None, "select_pruning_candidates", "core.pruning", None),
    ("repro.core.pruning", None, "consensus_prune", "core.pruning", None),
    ("repro.core.estimation", "DirectRoundRunner", "run_round", "ldp.round", None),
    ("repro.ldp.budget", "PrivacyAccountant", "record", "ldp.budget.record", _count_users),
    ("repro.ldp.budget", "PrivacyAccountant", "merge", "ldp.budget.merge", None),
    ("repro.experiments.runner", None, "evaluate_run", "metrics.evaluate", None),
    ("repro.service.server", "ServiceRoundRunner", "run_round", "service.round", None),
    ("repro.service.protocol", None, "encode_report_batch", "service.encode", _count_result_bytes),
    ("repro.net.client", "GatewayConnection", "open_round", "net.open_round", None),
    ("repro.net.client", "GatewayConnection", "send_batch", "net.send_batch", _count_payload_bytes),
    ("repro.net.client", "GatewayConnection", "finalize", "net.finalize", None),
    ("repro.cluster.coordinator", "ClusterConnection", "open_round", "cluster.open_round", None),
    ("repro.cluster.coordinator", "ClusterConnection", "send_batch", "cluster.send_batch", None),
    ("repro.cluster.coordinator", "ClusterConnection", "finalize", "cluster.finalize", None),
)

#: Generator entry points: each ``next()`` is one span (the work of a
#: generator runs between its yields, not when it is created).
GENERATOR_PROBES: tuple = (
    ("repro.service.clients", "iter_perturbed_batches", "service.perturb"),
)


class LayerTrace:
    """Wraps the :data:`PROBES` entry points and records a span per call.

    :meth:`install` puts the wrappers in place, :meth:`restore` puts every
    original back.  ``phase`` is stamped onto each span so the set-up and
    the traced window of one run can be told apart.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.phase = "setup"
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        stack = self._stack()
        span = self.tracer.start_span(name, parent=stack[-1] if stack else None)
        stack.append(span)
        return span, time.perf_counter()

    def end(self, span, t0: float, n: int | None = None) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        attrs = {"t0": t0, "t1": t1, "phase": self.phase,
                 "thread": threading.get_ident()}
        if n is not None:
            attrs["n"] = int(n)
        span.finish(**attrs)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span, t0 = self.begin(name)
        try:
            yield span
        finally:
            self.end(span, t0)

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, fn, name: str, count):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, t0 = trace.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                trace.end(span, t0, count(args, kwargs, result) if count else None)

        return wrapper

    def _wrap_generator(self, fn, name: str):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span, t0 = trace.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    trace.end(span, t0)
                yield item

        return wrapper

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Swap a module-level function in every ``repro`` module holding it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, original, wrapper)

    def install(self) -> None:
        for mod_name, cls_name, attr, name, count in PROBES:
            module = importlib.import_module(mod_name)
            if cls_name is None:
                original = getattr(module, attr)
                self._replace_everywhere(original, self._wrap(original, name, count))
            else:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(original, name, count))
        for mod_name, attr, name in GENERATOR_PROBES:
            original = getattr(importlib.import_module(mod_name), attr)
            self._replace_everywhere(original, self._wrap_generator(original, name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def records(self) -> list[dict]:
        return self.tracer.drain()


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def with_self_times(spans: list[dict]) -> list[dict]:
    """Annotate each span with ``self_s``: duration minus child coverage."""
    ids = {s["span_id"] for s in spans}
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent_id"] in ids:
            children[s["parent_id"]].append((s["t0"], s["t1"]))
    for s in spans:
        clipped = [
            (max(a, s["t0"]), min(b, s["t1"]))
            for a, b in children.get(s["span_id"], ())
            if b > s["t0"] and a < s["t1"]
        ]
        s["self_s"] = (s["t1"] - s["t0"]) - _covered(clipped)
        s["top"] = s["parent_id"] not in ids
    return spans


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 for no values), by the repository's helper."""
    return quantiles(values, [q])[0] if len(values) else 0.0


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, busy and self milliseconds, p50/p99, summed ``n``."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        groups[s["name"]].append(s)
    out = {}
    for name, group in groups.items():
        durations = [(s["t1"] - s["t0"]) * 1e3 for s in group]
        out[name] = {
            "count": len(group),
            "busy_ms": float(sum(durations)),
            "self_ms": float(sum(s["self_s"] for s in group) * 1e3),
            "p50_ms": percentile(durations, 50),
            "p99_ms": percentile(durations, 99),
            "n": int(sum(s.get("n", 0) for s in group)),
            "errors": sum(1 for s in group if "error" in s),
        }
    return out


#: Largest share of a traced window's wall time that no span may explain.
#: Above it a probe has gone missing (an entry point was bypassed or its
#: work moved out from under every probe), and the run fails.
MAX_UNATTRIBUTED_SHARE = 0.25


def layer_ledger(spans: list[dict], windows: dict[int, tuple[float, float]]) -> dict:
    """The blocking-path cost ledger of one traced window.

    ``windows`` maps each client thread to the wall interval it worked
    in.  Per thread, the wall time splits into the self times of its
    spans (which sum to the time its top-level spans cover, since spans
    on one thread nest) and ``unattributed_ms``, the time no span covers.
    The split is an identity; what can fail is ``unattributed_share``
    exceeding :data:`MAX_UNATTRIBUTED_SHARE`.
    """
    wall_ms = self_ms = top_ms = 0.0
    for thread, (w0, w1) in windows.items():
        mine = [s for s in spans if s["thread"] == thread]
        wall_ms += (w1 - w0) * 1e3
        self_ms += sum(s["self_s"] for s in mine) * 1e3
        top_ms += _covered(
            [(max(s["t0"], w0), min(s["t1"], w1)) for s in mine if s["top"]]
        ) * 1e3
    unattributed_ms = wall_ms - top_ms
    return {
        "wall_ms": wall_ms,
        "self_ms": self_ms,
        "unattributed_ms": unattributed_ms,
        "unattributed_share": unattributed_ms / wall_ms if wall_ms else 0.0,
    }
