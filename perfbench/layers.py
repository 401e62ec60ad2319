"""Which simulator modules make up each layer, and the per-layer metrics.

The layer names follow the project's roadmap.  Every class a layer's
modules define is wrapped (see :mod:`perfbench.spans`); a few methods are
moved to the layer that owns their work (``SimulatedCluster.replicas_for``
is placement, the rest of ``SimulatedCluster`` is the client-facing request
API).  Module-level helper functions are not wrapped: their time counts to
the layer that calls them.  The sharded engine (``repro.sim.parallel``) and
the chaos search are opt-in modes, not traffic, and are left out.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from perfbench.spans import SpanRecorder

#: layer -> modules whose classes it owns.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "placement": ("repro.cluster.ring", "repro.cluster.replication"),
    "fabric": ("repro.network.fabric", "repro.network.latency"),
    "transfers": ("repro.network.transfers",),
    "engine": (
        "repro.sim.engine",
        "repro.sim.timers",
        "repro.sim.process",
        "repro.sim.background",
        "repro.sim.rng",
    ),
    "coordinator": ("repro.cluster.coordinator", "repro.cluster.hints"),
    "node": ("repro.cluster.node", "repro.faults.detector"),
    "storage": ("repro.cluster.storage",),
    "auditor": (
        "repro.staleness.auditor",
        "repro.staleness.stats",
        "repro.faults.timeline",
    ),
    "control": (
        "repro.control.plane",
        "repro.control.policies",
        "repro.control.estimator",
        "repro.control.retry",
        "repro.core.monitor",
        "repro.core.policy",
        "repro.core.model",
        "repro.core.controller",
        "repro.geo.policy",
        "repro.cluster.stats",
    ),
    "antientropy": ("repro.cluster.antientropy",),
    "membership": ("repro.cluster.membership",),
    "client": (
        "repro.cluster.cluster",
        "repro.workload.client",
        "repro.workload.executor",
        "repro.workload.workloads",
        "repro.workload.distributions",
        "repro.metrics.counters",
        "repro.metrics.histogram",
        "repro.metrics.series",
    ),
    # The op-lifecycle tracer only runs in the traced job: its cost is
    # tracing overhead, kept apart so it does not inflate the coordinator.
    "trace": ("repro.obs.tracer",),
}

#: Order of the rows in reports (``gc`` and ``unattributed`` come last).
LAYERS: List[str] = list(LAYER_MODULES) + ["gc", "unattributed"]


class WalkLengths:
    """Counts ring-walk lengths (``TokenRing.walk_from_token`` results)."""

    def __init__(self) -> None:
        self.walks = 0
        self.nodes = 0

    def __call__(self, args: tuple, result: object) -> None:
        self.walks += 1
        self.nodes += len(result)

    def mean(self) -> float:
        return self.nodes / self.walks if self.walks else 0.0


def install(recorder: SpanRecorder) -> WalkLengths:
    """Wrap every layer's classes; returns the ring-walk length counter."""
    from repro.cluster.cluster import SimulatedCluster
    from repro.cluster.ring import TokenRing

    walks = WalkLengths()
    split = (SimulatedCluster, TokenRing)
    for layer, modules in LAYER_MODULES.items():
        for name in modules:
            recorder.wrap_module(importlib.import_module(name), layer, skip_classes=split)
    recorder.wrap_class(TokenRing, "placement", observe={"walk_from_token": walks})
    recorder.wrap_class(SimulatedCluster, "placement", only=("replicas_for",))
    # The constructor is build glue (it only creates the other layers'
    # objects); leaving it unwrapped shows that glue as unattributed time.
    recorder.wrap_class(SimulatedCluster, "client", skip=("__init__", "replicas_for"))
    return walks


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    walks: WalkLengths,
    cluster,
    result,
    tracer,
    ops: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced job.

    ``recorder`` holds the span aggregates, ``cluster`` / ``result`` the
    program's own counters, ``tracer`` the virtual-time op trace.
    """
    metrics = result.metrics
    totals = recorder.layer_self()
    entries = recorder.layer_entries()
    out: Dict[str, float] = {}
    for layer in LAYER_MODULES:
        out[f"{layer}.self_s"] = totals.get(layer, 0.0)
        out[f"{layer}.calls"] = entries.get(layer, 0)
    out["unattributed_s"] = totals["unattributed"]

    # placement
    lookups = recorder.function("SimulatedCluster.replicas_for").calls
    misses = recorder.function("ReplicationStrategy.replicas").calls
    out["placement.lookups"] = lookups
    out["placement.misses"] = misses
    out["placement.hit_ratio"] = 1.0 - _ratio(misses, lookups)
    out["placement.walk_len_mean"] = walks.mean()
    # The second mark closes the load phase: self time of build + load.
    out["placement.setup_self_s"] = recorder.marks[1][2]["placement"]

    # fabric
    send = recorder.function("NetworkFabric.send")
    stats = cluster.fabric.stats
    out["fabric.send_calls"] = send.calls
    out["fabric.send_self_s"] = send.self_s
    out["fabric.send_self_us_per_msg"] = _ratio(send.self_s * 1e6, send.calls)
    out["fabric.messages_per_op"] = _ratio(stats.sent, ops)
    out["fabric.blocked"] = stats.blocked

    # engine
    out["engine.events_per_op"] = _ratio(cluster.engine.events_processed, ops)

    # coordinator
    counters = {
        name: cluster.stats.total(name)
        for name in ("read_repairs", "hints_stored", "hints_replayed", "queue_rejections")
    }
    fanouts = [
        event.fields["contacted"]
        for event in tracer.events
        if event.kind == "op.fanout" and event.fields.get("op") == "read"
    ]
    out["coordinator.read_calls"] = recorder.function("Coordinator.read").calls
    out["coordinator.write_calls"] = recorder.function("Coordinator.write").calls
    out["coordinator.read_fanout_mean"] = _ratio(sum(fanouts), len(fanouts))
    out["coordinator.read_repairs"] = counters["read_repairs"]
    out["coordinator.hints_stored"] = counters["hints_stored"]
    out["coordinator.hints_replayed"] = counters["hints_replayed"]

    # node / storage
    out["node.handle_calls"] = recorder.function("StorageNode.handle_message").calls
    out["node.queue_rejections"] = counters["queue_rejections"]
    engines = [node.storage for node in cluster.nodes.values()]
    out["storage.apply_calls"] = recorder.function("StorageEngine.apply").calls
    out["storage.read_calls"] = recorder.function("StorageEngine.read").calls
    out["storage.flushes"] = sum(e.stats.memtable_flushes for e in engines)
    out["storage.read_misses"] = sum(e.stats.read_misses for e in engines)

    # auditor
    out["auditor.judge_calls"] = recorder.function("StalenessAuditor.judge").calls
    staleness = metrics.staleness
    out["auditor.judged_reads"] = staleness.judged_reads
    out["auditor.stale_read_rate"] = staleness.stale_rate()
    stats_obj = metrics.staleness_stats
    out["auditor.stale_age_p99_ms"] = (
        stats_obj.age_percentile(99) * 1e3 if stats_obj is not None else 0.0
    )
    out["auditor.stale_reads"] = staleness.stale_reads

    # control
    tick = recorder.function("ControlPlane.tick")
    out["control.ticks"] = tick.calls
    out["control.tick_s"] = tick.total_s
    out["control.decisions"] = sum(metrics.control_decisions.values())
    usage = metrics.consistency_level_usage
    weak = usage.get("ONE", 0) + usage.get("LOCAL_ONE", 0)
    reads = sum(usage.values())
    out["control.strong_read_share"] = 1.0 - _ratio(weak, reads)
    estimates = list(metrics.estimate_series.values)
    out["control.estimate_error"] = (
        abs(_ratio(sum(estimates), len(estimates)) - staleness.stale_rate()) if estimates else 0.0
    )

    # anti-entropy
    service = result.anti_entropy
    pair_stats = list(service.stats.values()) if service is not None else []
    started = sum(p.sessions_started for p in pair_stats)
    out["antientropy.sessions_started"] = started
    out["antientropy.completion_ratio"] = _ratio(
        sum(p.sessions_completed for p in pair_stats), started
    )
    out["antientropy.bytes_sent"] = sum(p.bytes_sent for p in pair_stats)
    out["antientropy.cells_streamed"] = sum(p.cells_streamed for p in pair_stats)
    out["antientropy.tree_self_s"] = recorder.class_self("MerkleTree") + sum(
        recorder.function(f"AntiEntropyService.{name}").self_s
        for name in ("_refresh_cache", "_build_tree", "_dc_view")
    )

    # transfers
    out["transfers.started"] = stats.transfers_started
    out["transfers.completed"] = stats.transfers_completed
    out["transfers.bytes_completed"] = stats.transfer_bytes_completed

    # membership: bootstrap phases read from the virtual-time trace
    starts = [e.time for e in tracer.events if e.kind == "bootstrap.start"]
    cutovers = [e for e in tracer.events if e.kind == "bootstrap.cutover"]
    out["membership.bootstrap_virtual_s"] = (
        cutovers[0].time - starts[0] if starts and cutovers else 0.0
    )
    out["membership.streamed_cells"] = (
        cutovers[0].fields.get("streamed_cells", 0) if cutovers else 0
    )
    out["membership.epoch"] = cluster.membership_epoch
    return out


def phase_rows(recorder: SpanRecorder) -> List[Dict[str, object]]:
    """Per-phase wall time and self seconds per layer, for the span dump."""
    return [
        {"phase": phase, "wall_s": wall, "self_s": totals}
        for phase, wall, totals in recorder.phase_table()
    ]
