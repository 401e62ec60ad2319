"""Regression guards on the per-operation runtime budget.

The op-path overhaul (zero-Waiter completions, batched client scheduler,
shared timer queues) is held in place by pinning the *counts* that make it
fast: engine events per operation and fabric messages per operation on the
``SCALE_100`` reference workload.  These are deterministic for a given seed,
so the ceilings are machine-independent -- a change that quietly reintroduces
per-operation bookkeeping events fails here long before a wall-clock
benchmark would notice.

Recorded at the time of the overhaul (seed 11, 120 records, 600 ops,
20 threads): ~14.1 events/op and ~8.74 messages/op in the run phase.

Placement is pinned the same way: building and loading a ``SCALE_1000``
cluster walks the ring zero times, because each ring epoch's replica table
is built in one sweep instead of one ring walk per range.
"""

from __future__ import annotations

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.replication import (
    NetworkTopologyStrategy,
    OldNetworkTopologyStrategy,
    SimpleStrategy,
)
from repro.cluster.ring import TokenRing
from repro.core.policy import StaticQuorumPolicy
from repro.experiments.scenarios import SCALE_100, SCALE_1000
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

#: Ceilings with a small allowance over the recorded values; semantic
#: message counts (replica fan-out) dominate, the allowance covers only
#: bookkeeping drift.
MAX_EVENTS_PER_OP = 15.0
MAX_MESSAGES_PER_OP = 9.2


def run_phase_counts(scenario, *, seed, records, ops, threads):
    cluster = SimulatedCluster(scenario.cluster_config(seed=seed))
    workload = WORKLOAD_A.scaled(record_count=records, operation_count=ops)
    executor = WorkloadExecutor(cluster, workload, StaticQuorumPolicy(), threads=threads)
    executor.load()
    events_before = cluster.engine.events_processed
    messages_before = cluster.fabric.stats.sent
    metrics = executor.run()
    assert metrics.counters.total == ops
    events = cluster.engine.events_processed - events_before
    messages = cluster.fabric.stats.sent - messages_before
    return events / ops, messages / ops


class TestOperationBudget:
    def test_scale_100_events_per_op_within_budget(self):
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_100, seed=11, records=120, ops=600, threads=20
        )
        assert events_per_op <= MAX_EVENTS_PER_OP, (
            f"events/op regressed to {events_per_op:.2f} "
            f"(budget {MAX_EVENTS_PER_OP}); did a per-operation event sneak "
            "back into the completion or timeout path?"
        )
        assert messages_per_op <= MAX_MESSAGES_PER_OP, (
            f"messages/op regressed to {messages_per_op:.2f} "
            f"(budget {MAX_MESSAGES_PER_OP})"
        )

    def test_budget_is_stable_across_seeds(self):
        # The ceilings must not be a lucky seed: a second seed stays inside.
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_100, seed=12, records=120, ops=600, threads=20
        )
        assert events_per_op <= MAX_EVENTS_PER_OP
        assert messages_per_op <= MAX_MESSAGES_PER_OP

    def test_scale_1000_serves_a_closed_loop(self):
        # Headroom proof: a 1000-node ring serves a small closed loop with
        # the same per-op budget (placement walks, link lookups and timers
        # must all stay O(1) in ring width).
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_1000, seed=11, records=60, ops=300, threads=10
        )
        assert events_per_op <= MAX_EVENTS_PER_OP
        assert messages_per_op <= MAX_MESSAGES_PER_OP


def count_calls(monkeypatch, cls, name, counts):
    method = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


class TestPlacementBudget:
    def test_scale_1000_build_and_load_never_walk_the_ring(self, monkeypatch):
        counts = {"walk_from_token": 0, "replicas_for_walk": 0}
        count_calls(monkeypatch, TokenRing, "walk_from_token", counts)
        for cls in (SimpleStrategy, OldNetworkTopologyStrategy, NetworkTopologyStrategy):
            count_calls(monkeypatch, cls, "replicas_for_walk", counts)
        cluster = SimulatedCluster(SCALE_1000.cluster_config(seed=11))
        workload = WORKLOAD_A.scaled(record_count=200, operation_count=0)
        WorkloadExecutor(cluster, workload, StaticQuorumPolicy(), threads=10).load()
        assert counts == {"walk_from_token": 0, "replicas_for_walk": 0}
        assert len(cluster.placement.table) == len(cluster.ring.tokens)
