"""One benchmark job in a fresh process: build, load, run, collect results.

Run from the repository root (``perfbench/run.py`` starts it)::

    python3 -m perfbench.job --workload ring1000-ycsb-a --seed 1 --mode plain

Modes:

``plain``
    nothing but the job and four clock reads at its phase boundaries; the
    end-to-end wall metrics come from these jobs.
``gc``
    the same, plus a ``gc.callbacks`` listener timing collector pauses.
``spans``
    every layer's classes wrapped in timing spans and the program's
    :class:`~repro.obs.tracer.Tracer` attached; per-layer metrics.

The job prints one JSON object on its last stdout line.  Output checks run
after the timed region, so they never count as job time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

from perfbench import layers
from perfbench.spans import SpanRecorder
from perfbench.workloads import Workload, build_workloads


def signature(result, cluster) -> str:
    """SHA-256 over the run's summary and the simulator's exact counters.

    Same seed, same program: same signature, traced or not.
    """
    stats = cluster.fabric.stats
    record = {
        "summary": result.metrics.summary(),
        "events_processed": cluster.engine.events_processed,
        "messages_sent": stats.sent,
        "delivered": stats.delivered,
        "dropped": stats.dropped,
        "blocked": stats.blocked,
        "per_kind": {
            str(getattr(kind, "value", kind)): count
            for kind, count in sorted(stats.per_kind.items(), key=lambda kv: str(kv[0]))
        },
        "virtual_now": repr(cluster.engine.now),
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def sim_metrics(result) -> Dict[str, float]:
    """End-to-end metrics in virtual time (exact for a fixed seed)."""
    metrics = result.metrics
    counters = metrics.counters
    attempted = result.config.workload.operation_count
    stats = metrics.staleness_stats
    failed = counters.unavailable + counters.read_timeouts + counters.write_timeouts
    return {
        "sim_read_p50_ms": metrics.read_latency.p50() * 1e3,
        "sim_read_p99_ms": metrics.read_latency.p99() * 1e3,
        "sim_write_p99_ms": metrics.write_latency.p99() * 1e3,
        "sim_throughput_ops_s": metrics.ops_per_second(),
        "stale_read_rate": metrics.staleness.stale_rate(),
        "stale_age_p99_ms": stats.age_percentile(99) * 1e3 if stats is not None else 0.0,
        "failed_op_rate": failed / attempted,
        "read_samples": metrics.read_latency.count,
        "write_samples": metrics.write_latency.count,
        "judged_reads": metrics.staleness.judged_reads,
        "stale_reads": metrics.staleness.stale_reads,
        "attempted": attempted,
        "failed": failed,
    }


def run_job(spec: Workload, seed: int, mode: str, dump: Optional[str] = None) -> Dict:
    """Run one job of ``spec``; returns its timings, metrics and check failures."""
    # numpy loads these modules on first use.  Loading libraries is
    # interpreter start-up, not simulator work, so it happens before the clock
    # starts, like every other import of the job.
    import numpy.ma  # noqa: F401
    import numpy.random  # noqa: F401
    from repro.cluster.membership import MembershipManager
    from repro.experiments.runner import make_policy, run_experiment
    from repro.obs.tracer import Tracer
    from repro.workload.executor import WorkloadExecutor

    recorder: Optional[SpanRecorder] = None
    walks = None
    tracer = None
    if mode in ("gc", "spans"):
        recorder = SpanRecorder()
    if mode == "spans":
        walks = layers.install(recorder)
        tracer = Tracer()

    clock = time.perf_counter
    stamps: Dict[str, float] = {}
    clusters: List[object] = []

    def cluster_built(cluster) -> None:
        stamps["build"] = clock()
        if recorder is not None:
            recorder.mark("build")
        clusters.append(cluster)
        if cluster.config.spares_per_dc > 0:
            # Installed (not started) up front so the tracer can see the
            # bootstrap; the fault injector starts it when the join begins.
            manager = MembershipManager(cluster)
            if tracer is not None:
                tracer.attach_membership(manager)

    begin_run = WorkloadExecutor.begin_run

    def stamped_begin_run(self, *args, **kwargs):
        if "setup" not in stamps:
            stamps["setup"] = clock()
            if recorder is not None:
                recorder.mark("load")
        return begin_run(self, *args, **kwargs)

    policy = make_policy(
        spec.policy, spec.scenario, monitoring_interval=spec.monitoring_interval
    )
    WorkloadExecutor.begin_run = stamped_begin_run
    try:
        start = clock()
        if recorder is not None:
            recorder.start()
        result = run_experiment(
            spec.scenario,
            spec.workload,
            policy,
            spec.threads,
            seed=seed,
            cluster_hook=cluster_built,
            tracer=tracer,
            **spec.run_kwargs,
        )
        stamps["run"] = clock()
        if recorder is not None:
            recorder.mark("run")
        cluster = clusters[0]
        sim = sim_metrics(result)
        sig = signature(result, cluster)
        end = clock()
        if recorder is not None:
            recorder.mark("collect")
    finally:
        WorkloadExecutor.begin_run = begin_run
        if recorder is not None:
            recorder.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = result.metrics.counters.total
    out: Dict[str, object] = {
        "workload": spec.name,
        "seed": seed,
        "mode": mode,
        "job_s": end - start,
        "setup_s": stamps["setup"] - start,
        "build_s": stamps["build"] - start,
        "run_s": stamps["run"] - stamps["setup"],
        "collect_s": end - stamps["run"],
        "ops": ops,
        "run_ops_per_s": ops / (stamps["run"] - stamps["setup"]),
        "peak_rss_mb": peak_rss_mb,
        "sim": sim,
        "signature": sig,
    }
    if recorder is not None:
        out["gc"] = {
            "pause_s": recorder.gc_pause_s,
            "pause_share": recorder.gc_pause_s / (end - start),
            "collections": list(recorder.gc_collections),
        }
    if mode == "spans":
        out["layers"] = layers.layer_metrics(recorder, walks, cluster, result, tracer, ops)
        out["layers"]["client.failed_op_rate"] = sim["failed_op_rate"]
        out["phases"] = layers.phase_rows(recorder)
        if dump:
            write_dump(dump, recorder, tracer, out)
    out["failures"] = spec.check(result, cluster)
    return out


def write_dump(path: str, recorder: SpanRecorder, tracer, summary: Dict) -> None:
    """Write the aggregated spans of a traced job (kept in memory until now)."""
    functions = sorted(recorder.functions, key=lambda s: -s.self_s)
    record = {
        "workload": summary["workload"],
        "seed": summary["seed"],
        "job_s": summary["job_s"],
        "phases": summary["phases"],
        "functions": [
            {
                "name": s.name,
                "layer": recorder.layers[s.layer],
                "calls": s.calls,
                "entries": s.entries,
                "self_s": s.self_s,
                "total_s": s.total_s,
            }
            for s in functions
            if s.calls
        ],
        "trace_counts_by_kind": tracer.counts_by_kind(),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(build_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "gc", "spans"), default="plain")
    parser.add_argument("--dump", default=None, help="span dump path (spans mode)")
    args = parser.parse_args(argv)
    out = run_job(build_workloads()[args.workload], args.seed, args.mode, args.dump)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
