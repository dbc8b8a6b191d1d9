"""Adaptive load control: pick batch size/credits/workers from latency.

The load generator's knobs (``batch_size``, pipelining ``credits``,
``max_workers``) have always been constants chosen by whoever wrote the
spec.  :class:`AdaptiveController` replaces the constants with a
deterministic feedback loop over *observed* batch latency: feed it every
send→ack latency of a round, call :meth:`end_round`, and it returns a
:class:`ControllerDecision` for the next round.

The batch-size search is a bracketing doubling search, chosen over plain
AIMD because it provably terminates instead of oscillating:

* while no batch has ever breached the p95 target, double (bounded by
  ``max_batch_size``);
* a breach records the smallest known-bad batch and halves (bounded by
  ``min_batch_size``);
* a good round records the largest known-good batch and only grows while
  ``2×good`` stays strictly below the known-bad bracket — once the
  bracket closes, the controller reports ``converged`` and holds.

Under any latency model that is monotone in batch size this converges to
the largest power-of-two multiple of the floor that meets the target,
and the decision sequence is a pure function of the observed latencies —
no wall clock in the logic.  The injectable ``clock`` only timestamps
decisions for the trace; tests pass a counting fake and assert the whole
trace, stamp for stamp.

Credits are sized so the pipeline can cover the p95 round trip at the
observed p50 (``p95/p50`` outstanding batches, clamped), and the worker
recommendation is simply the effective core count clamped to the
configured cap — honest defaults, recorded per decision so the trace
explains every knob it picked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.obs.registry import quantiles
from repro.perf.calibrate import effective_cores
from repro.utils.validation import check_known_keys


@dataclass(frozen=True)
class ControllerConfig:
    """The controller's envelope: the target and the bounds it moves in."""

    target_p95_ms: float = 50.0
    min_batch_size: int = 256
    max_batch_size: int = 65536
    min_credits: int = 1
    max_credits: int = 8
    max_workers_cap: int = 8

    def __post_init__(self):
        if self.target_p95_ms <= 0:
            raise ValueError(f"target_p95_ms must be positive, got {self.target_p95_ms}")
        if not (1 <= self.min_batch_size <= self.max_batch_size):
            raise ValueError(
                "batch bounds must satisfy 1 <= min_batch_size <= max_batch_size, "
                f"got [{self.min_batch_size}, {self.max_batch_size}]"
            )
        if not (1 <= self.min_credits <= self.max_credits):
            raise ValueError(
                "credit bounds must satisfy 1 <= min_credits <= max_credits, "
                f"got [{self.min_credits}, {self.max_credits}]"
            )
        if self.max_workers_cap < 1:
            raise ValueError(f"max_workers_cap must be >= 1, got {self.max_workers_cap}")

    def to_dict(self) -> dict:
        return {
            "target_p95_ms": self.target_p95_ms,
            "min_batch_size": self.min_batch_size,
            "max_batch_size": self.max_batch_size,
            "min_credits": self.min_credits,
            "max_credits": self.max_credits,
            "max_workers_cap": self.max_workers_cap,
        }

    @classmethod
    def from_dict(cls, data: Mapping, *, source: str = "<controller>") -> "ControllerConfig":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"{source}: a controller config must be a mapping, "
                f"got {type(data).__name__}"
            )
        check_known_keys(
            data,
            tuple(cls.__dataclass_fields__),
            where="adaptive",
            source=source,
            error=ValueError,
        )
        return cls(**dict(data))


@dataclass(frozen=True)
class ControllerDecision:
    """One round's outcome and the knobs chosen for the next round."""

    round_index: int
    batch_size: int
    credits: int
    max_workers: int
    p50_ms: float
    p95_ms: float
    action: str  # "probe" | "increase" | "decrease" | "hold" | "converged"
    at: float

    def to_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "batch_size": self.batch_size,
            "credits": self.credits,
            "max_workers": self.max_workers,
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "action": self.action,
            "at": round(self.at, 6),
        }


@dataclass
class AdaptiveController:
    """Deterministic latency-driven knob picker (see the module docstring).

    Drive it round by round::

        controller = AdaptiveController(ControllerConfig(target_p95_ms=10))
        for _ in range(rounds):
            run_round(batch_size=controller.batch_size)   # observe() each batch
            decision = controller.end_round()             # knobs for next round

    The decision sequence (``decisions``) is a pure function of the
    observed latency sequence; two runs fed identical latencies produce
    identical traces.
    """

    config: ControllerConfig = field(default_factory=ControllerConfig)
    initial_batch_size: int | None = None
    cores: int | None = None
    clock: Callable[[], float] = time.perf_counter

    def __post_init__(self):
        if self.cores is None:
            self.cores = effective_cores()
        start = (
            self.config.min_batch_size
            if self.initial_batch_size is None
            else int(self.initial_batch_size)
        )
        self._batch = self._clamp_batch(start)
        self._credits = self.config.min_credits
        self._good: int | None = None  # largest batch that met the target
        self._bad: int | None = None   # smallest batch that breached it
        self._window: list[float] = []
        self._round = 0
        self.decisions: list[ControllerDecision] = []

    # ------------------------------------------------------------------ #
    # Current knobs
    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return self._batch

    @property
    def credits(self) -> int:
        return self._credits

    @property
    def max_workers(self) -> int:
        return max(1, min(int(self.cores), self.config.max_workers_cap))

    @property
    def converged(self) -> bool:
        """True once the good/bad bracket leaves no room to move."""
        if self._bad is not None and self._bad <= self.config.min_batch_size:
            return True  # even the floor breaches: pinned at the floor
        if self._good is None:
            return False
        ceiling = self._bad if self._bad is not None else self.config.max_batch_size + 1
        return self._good * 2 >= ceiling or self._good >= self.config.max_batch_size

    def _clamp_batch(self, batch: int) -> int:
        return max(self.config.min_batch_size, min(self.config.max_batch_size, int(batch)))

    # ------------------------------------------------------------------ #
    # Feedback
    # ------------------------------------------------------------------ #
    def observe(self, latency_seconds: float) -> None:
        """Record one batch's send→ack latency (seconds) for this round."""
        self._window.append(float(latency_seconds))

    def observe_many(self, latencies_seconds: Iterable[float]) -> None:
        for latency in latencies_seconds:
            self.observe(latency)

    def end_round(self) -> ControllerDecision:
        """Fold this round's observations into the next round's knobs."""
        self._round += 1
        if self._window:
            ms = np.asarray(self._window, dtype=np.float64) * 1e3
            p50, p95 = quantiles(ms, (50.0, 95.0))
        else:
            p50 = p95 = 0.0
        batch = self._batch
        target = self.config.target_p95_ms

        if not self._window:
            action = "hold"  # nothing observed: keep every knob
        elif p95 > target:
            self._bad = batch if self._bad is None else min(self._bad, batch)
            shrunk = self._clamp_batch(batch // 2)
            action = "hold" if shrunk == batch else "decrease"
            self._batch = shrunk
        else:
            self._good = batch if self._good is None else max(self._good, batch)
            ceiling = (
                self._bad if self._bad is not None else self.config.max_batch_size + 1
            )
            grown = self._clamp_batch(batch * 2)
            if self.converged:
                # Inside the closed bracket: settle on the best known-good
                # batch and stay there.
                self._batch = self._clamp_batch(self._good)
                action = "converged"
            elif grown > batch and grown < ceiling:
                self._batch = grown
                action = "probe" if self._bad is None else "increase"
            else:
                action = "hold"

        if self._window and p50 > 0:
            pipeline_depth = int(max(p95, p50) // p50)
            self._credits = max(
                self.config.min_credits, min(self.config.max_credits, pipeline_depth)
            )
        decision = ControllerDecision(
            round_index=self._round,
            batch_size=self._batch,
            credits=self._credits,
            max_workers=self.max_workers,
            p50_ms=p50,
            p95_ms=p95,
            action=action,
            at=float(self.clock()),
        )
        self.decisions.append(decision)
        self._window = []
        return decision

    def trace(self) -> list[dict]:
        """The JSON-safe decision trace (what loadgen reports embed)."""
        return [decision.to_dict() for decision in self.decisions]


def resolve_adaptive(adaptive, *, source: str = "<adaptive>") -> ControllerConfig | None:
    """Normalise an ``adaptive`` knob: bool/mapping/config → config or None.

    The one translation used by :func:`repro.cluster.loadgen.run_loadgen` and
    the loadgen spec: ``False``/``None`` disable, ``True`` means default
    config, a mapping carries :class:`ControllerConfig` fields.
    """
    if adaptive is None or adaptive is False:
        return None
    if adaptive is True:
        return ControllerConfig()
    if isinstance(adaptive, ControllerConfig):
        return adaptive
    if isinstance(adaptive, Mapping):
        return ControllerConfig.from_dict(adaptive, source=source)
    raise ValueError(
        f"{source}: 'adaptive' must be a bool or a controller-config mapping, "
        f"got {type(adaptive).__name__}"
    )
