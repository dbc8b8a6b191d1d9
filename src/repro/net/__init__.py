"""Networked aggregation runtime: the service protocol over real sockets.

PR 2's service layer made every report batch and round broadcast travel as
canonical bytes — but inside one process.  This subsystem puts those same
bytes on TCP:

* :mod:`repro.net.framing` — typed, length-prefixed frames wrapping the
  service codecs unchanged, plus the lossless estimate codec and the
  structured error-frame mapping;
* :mod:`repro.net.gateway` — :class:`AggregationGateway`, an asyncio TCP
  front for an :class:`~repro.service.server.AggregationServer`: decode
  fan-out on the execution engine, credit-based per-connection
  backpressure, global in-flight bounds, oversize-frame rejection;
  :func:`start_gateway` hosts it on a daemon thread for synchronous
  callers;
* :mod:`repro.net.client` — the synchronous :class:`GatewayConnection`
  (one TCP connection to one gateway), plus :func:`run_over_network`.

The client path built on these — the server proxy, shard routing and the
load generator — lives one layer up, in :mod:`repro.cluster`, where one
gateway is simply a 1-shard cluster; nothing here imports it.

The headline invariant (``tests/test_net_equivalence.py``): for a fixed
seed, a discovery run over a live gateway is **bit-identical** — per-round
estimates and exact wire-bit totals — to
``MechanismConfig(execution_mode="service")``.  The network layer adds
transport, never semantics.
"""

from repro.net.client import GatewayConnection, parse_address, run_over_network
from repro.net.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_BROADCAST_REQUEST,
    FRAME_ERROR,
    FRAME_ESTIMATE,
    FRAME_REPORT_BATCH,
    FRAME_ROUND_CONTROL,
    FRAME_STATS,
    Frame,
    FrameError,
    OversizeFrameError,
    decode_estimate,
    decode_metrics_frame,
    encode_estimate,
    encode_frame,
    encode_metrics_frame,
    error_to_exception,
    exception_to_error,
    split_frame_kind,
)
from repro.net.gateway import (
    AggregationGateway,
    GatewayHandle,
    run_gateway_forever,
    start_gateway,
)

__all__ = [
    "AggregationGateway",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_BROADCAST_REQUEST",
    "FRAME_ERROR",
    "FRAME_ESTIMATE",
    "FRAME_REPORT_BATCH",
    "FRAME_ROUND_CONTROL",
    "FRAME_STATS",
    "Frame",
    "FrameError",
    "GatewayConnection",
    "GatewayHandle",
    "OversizeFrameError",
    "decode_estimate",
    "decode_metrics_frame",
    "encode_estimate",
    "encode_frame",
    "encode_metrics_frame",
    "error_to_exception",
    "exception_to_error",
    "parse_address",
    "split_frame_kind",
    "run_gateway_forever",
    "run_over_network",
    "start_gateway",
]
