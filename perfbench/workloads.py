"""The benchmark's three workloads and the output checks each must pass.

Each workload is one :func:`repro.experiments.runner.run_experiment` call: a
closed loop of simulated clients in a single process and thread, with the
workload seed as the experiment seed.  Why each one is in the benchmark is
written down in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.cluster import resolve_spares, resolve_topology
from repro.cluster.consistency import ConsistencyLevel
from repro.control.policies import RepairControlConfig
from repro.experiments.scenarios import GRID5000, GRID5000_3SITES_WAN, SCALE_1000, Scenario
from repro.faults.schedule import DatacenterIsolation, FaultSchedule, NodeBootstrap
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B, WorkloadConfig


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what to run and how to judge its output."""

    name: str
    scenario: Scenario
    workload: WorkloadConfig
    policy: str
    threads: int
    #: Control-plane tick of adaptive policies (None: the policy default).
    monitoring_interval: Optional[float] = None
    run_kwargs: Dict[str, object] = field(default_factory=dict)
    #: ``check(result, cluster) -> [failure, ...]``, run after the timed job.
    check: Callable[[object, object], List[str]] = lambda result, cluster: []


def _attempted_adds_up(result) -> List[str]:
    counters = result.metrics.counters
    attempted = result.config.workload.operation_count
    if counters.total != attempted:
        return [f"completed+failed {counters.total} != attempted {attempted}"]
    return []


def _check_ring1000(result, cluster) -> List[str]:
    failures = _attempted_adds_up(result)
    stale = result.metrics.staleness.stale_reads
    if stale:
        failures.append(f"{stale} stale reads at QUORUM (R+W>RF must give none)")
    if result.metrics.staleness.judged_reads == 0:
        failures.append("no read was judged by the auditor")
    return failures


#: Harmony's tolerated stale-read rate on the grid5000 workload.
GRID5000_ASR = 0.2


def _check_grid5000(result, cluster) -> List[str]:
    failures = _attempted_adds_up(result)
    rate = result.metrics.staleness.stale_rate()
    if rate > GRID5000_ASR:
        failures.append(f"stale rate {rate:.4f} above the tolerated {GRID5000_ASR}")
    if result.metrics.staleness.judged_reads == 0:
        failures.append("no read was judged by the auditor")
    return failures


def _check_geo3(result, cluster) -> List[str]:
    failures = _attempted_adds_up(result)
    log = [text for _, text in result.injector.log]
    if not any(text.startswith("isolate sophia") for text in log):
        failures.append(f"fault log has no isolation of sophia: {log}")
    if not any(text.startswith("deisolate sophia") for text in log):
        failures.append(f"fault log has no heal of sophia: {log}")
    if cluster.membership_epoch < 1:
        failures.append("the bootstrap never reached cutover (membership epoch 0)")
    # Quiesce the periodic processes so settle() drains, then read every
    # acknowledged key back at ALL.
    if cluster.membership is not None:
        cluster.membership.stop()
    cluster.settle()
    auditor = result.auditor
    answers: Dict[str, object] = {}
    for key in auditor.audited_keys():
        cluster.read(
            key,
            ConsistencyLevel.ALL,
            lambda result, key=key: answers.__setitem__(key, result),
            notify_observers=False,
        )
    cluster.settle()
    wrong = 0
    for key in auditor.audited_keys():
        result = answers.get(key)
        cell = getattr(result, "cell", None)
        got = (cell.timestamp, cell.value_id) if cell is not None else None
        if got != auditor.newest_acknowledged(key):
            wrong += 1
    if wrong:
        failures.append(f"{wrong} keys read back at ALL differ from the newest acked write")
    return failures


def geo3_scenario(
    isolate_at: float = 10.0, isolation_s: float = 60.0, bootstrap_delay: float = 2.0
) -> Scenario:
    """Sophia cut off from the WAN, then a Rennes spare joins after the heal."""
    base = GRID5000_3SITES_WAN.with_overrides(spares_per_dc=1)
    config = base.cluster_config()
    spare = next(
        address
        for address in resolve_spares(config, resolve_topology(config))
        if address.datacenter == "rennes"
    )
    schedule = FaultSchedule(
        [
            DatacenterIsolation(
                at=isolate_at,
                datacenter="sophia",
                duration=isolation_s,
                mode="drop",
                replay_hints=False,
            ),
            # After the heal, so the joiner streams from a healed ring.
            NodeBootstrap(at=isolate_at + isolation_s + bootstrap_delay, node=spare),
        ]
    )
    return base.with_overrides(
        name="geo3_partition_bootstrap",
        fault_schedule=schedule,
        # Adaptive Merkle repair on the same control plane as the policy;
        # the base tick equals the scenario's 10 s repair interval.
        adaptive_repair=RepairControlConfig(
            min_interval=10.0, max_interval=60.0, wan_budget_bytes_per_s=2_000_000.0
        ),
    )


def build_workloads() -> Dict[str, Workload]:
    geo3 = geo3_scenario()
    workloads = [
        Workload(
            name="ring1000-ycsb-a",
            scenario=SCALE_1000,
            workload=WORKLOAD_A.scaled(record_count=2000, operation_count=8000),
            policy="quorum",
            threads=1000,
            check=_check_ring1000,
        ),
        Workload(
            # 20000 records x RF 5 over 20 nodes = 5000 keys a node, past the
            # 4096-key memtable, so every node flushes during the load.
            name="grid5000-harmony-a",
            scenario=GRID5000,
            workload=WORKLOAD_A.scaled(record_count=20000, operation_count=12000),
            policy="harmony-0.2",
            threads=90,
            # The figure benches' tick: dozens of decisions within the run.
            monitoring_interval=0.05,
            check=_check_grid5000,
        ),
        Workload(
            name="geo3-partition-bootstrap",
            scenario=geo3,
            workload=WORKLOAD_B.scaled(record_count=2000, operation_count=40000),
            policy="geo-harmony-rw",
            threads=12,
            run_kwargs={"datacenters": geo3.datacenter_names, "think_time": 0.02},
            check=_check_geo3,
        ),
    ]
    return {w.name: w for w in workloads}

