#!/usr/bin/env python3
"""The repository benchmark: run one workload, check it, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ring1000-ycsb-a --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each job (build the cluster, load it, run the clients, collect results) runs
in a fresh ``python3 -m perfbench.job`` process, one at a time, until
``--seconds`` of wall time is used (at least one job per simulation seed
untraced, one pair traced).  Untraced jobs cycle through five simulation
seeds derived from ``--seed``, traced ones use the first; jobs of the same
simulation seed must give identical simulated results.  Wall metrics are
the median over the jobs, simulated (``sim_*``) metrics the mean over the
simulation seeds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates a job
that only listens to the garbage collector with a job whose layers are
wrapped in timing spans, and prints the per-layer metrics.  Human-readable
lines come first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
an output check fails (after printing that object) or when a job cannot run
(without printing it).  ``--workload all`` runs the three workloads in turn
and ends with one JSON object mapping each workload to its result.  Every
result is also written, with its provenance, under ``.perfbench/results/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("ring1000-ycsb-a", "grid5000-harmony-a", "geo3-partition-bootstrap")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("run_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("sim_read_p50_ms", "ms"),
    ("sim_read_p99_ms", "ms"),
    ("sim_write_p99_ms", "ms"),
    ("sim_throughput_ops_s", "ops/s"),
)

#: End-to-end metrics that are zero on some workload by design (QUORUM has
#: no stale reads; no workload may fail an op).  They are printed with the
#: others and reported per layer, but cannot carry a regression bound.
ALSO_PRINTED: Tuple[Tuple[str, str], ...] = (
    ("stale_read_rate", "ratio"),
    ("stale_age_p99_ms", "ms"),
    ("failed_op_rate", "ratio"),
)

#: (name, unit) of every per-layer metric in the traced run's JSON.  Layer
#: times that are zero on a workload where the layer is idle (transfers,
#: anti-entropy, membership, control ticks) are printed but left out here.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("placement.self_s", "s"),
    ("placement.setup_self_s", "s"),
    ("placement.lookups", "count"),
    ("placement.misses", "count"),
    ("placement.hit_ratio", "ratio"),
    ("placement.walk_len_mean", "nodes"),
    ("fabric.self_s", "s"),
    ("fabric.send_calls", "count"),
    ("fabric.send_self_s", "s"),
    ("fabric.send_self_us_per_msg", "us"),
    ("fabric.messages_per_op", "count"),
    ("fabric.blocked", "count"),
    ("engine.self_s", "s"),
    ("engine.events_per_op", "count"),
    ("gc.pause_s", "s"),
    ("gc.pause_share", "ratio"),
    ("gc.gen2_collections", "count"),
    ("coordinator.self_s", "s"),
    ("coordinator.read_calls", "count"),
    ("coordinator.write_calls", "count"),
    ("coordinator.read_fanout_mean", "count"),
    ("coordinator.read_repairs", "count"),
    ("coordinator.hints_stored", "count"),
    ("coordinator.hints_replayed", "count"),
    ("node.self_s", "s"),
    ("node.handle_calls", "count"),
    ("node.queue_rejections", "count"),
    ("storage.self_s", "s"),
    ("storage.apply_calls", "count"),
    ("storage.read_calls", "count"),
    ("storage.flushes", "count"),
    ("storage.read_misses", "count"),
    ("auditor.self_s", "s"),
    ("auditor.judge_calls", "count"),
    ("auditor.stale_read_rate", "ratio"),
    ("auditor.stale_reads", "count"),
    ("control.self_s", "s"),
    ("control.ticks", "count"),
    ("control.decisions", "count"),
    ("control.strong_read_share", "ratio"),
    ("control.estimate_error", "ratio"),
    ("antientropy.sessions_started", "count"),
    ("antientropy.completion_ratio", "ratio"),
    ("antientropy.bytes_sent", "bytes"),
    ("antientropy.cells_streamed", "count"),
    ("transfers.started", "count"),
    ("transfers.completed", "count"),
    ("transfers.bytes_completed", "bytes"),
    ("membership.streamed_cells", "count"),
    ("membership.epoch", "count"),
    ("client.self_s", "s"),
    ("client.failed_op_rate", "ratio"),
    ("trace.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Hard stop for one run: the benchmark must exit within 180 s.
RUN_CAP_S = 150.0

#: Simulation seeds per run.  A latency tail or stale rate from one seed
#: varies from seed to seed more than the bounds allow; the mean over five
#: is steady.
SIM_SEEDS = 5


#: Sample counts a job reports beside its simulated metrics.
SIM_COUNTS = ("read_samples", "write_samples", "judged_reads", "stale_reads", "attempted", "failed")


def sim_seeds(seed: int) -> List[int]:
    """The simulation seeds of benchmark seed ``seed`` (disjoint per seed)."""
    return [SIM_SEEDS * seed + index for index in range(SIM_SEEDS)]


class JobFailed(RuntimeError):
    """A job process exited non-zero or printed no result."""


def run_child(workload: str, seed: int, mode: str, timeout: float) -> Dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    command = [
        sys.executable, "-m", "perfbench.job",
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if mode == "spans":
        command += ["--dump", os.path.join(OUT_DIR, "spans", f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"{workload} {mode} job exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise JobFailed(
            f"{workload} {mode} job exited {done.returncode}:\n{done.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def run_jobs(workload: str, seeds: Sequence[int], seconds: float, modes: Sequence[str],
             min_rounds: int) -> List[Dict]:
    """Run rounds of ``modes`` jobs until the next round would overrun.

    Round ``i`` uses simulation seed ``seeds[i % len(seeds)]``.
    """
    started = time.perf_counter()
    jobs: List[Dict] = []
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            remaining = RUN_CAP_S - (time.perf_counter() - started)
            jobs.append(run_child(workload, seeds[rounds % len(seeds)], mode, remaining))
        rounds += 1
        now = time.perf_counter()
        round_s = now - round_start
        elapsed = now - started
        if elapsed + round_s > RUN_CAP_S:
            break
        if rounds >= min_rounds and elapsed + round_s > seconds:
            break
    return jobs


def provenance(workload: str, seed: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - provenance is best effort
        numpy_version = "unknown"
    sha, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def check_signatures(jobs: List[Dict]) -> List[str]:
    """Jobs of one simulation seed, traced or not, must be identical."""
    failures = []
    for seed in sorted({job["seed"] for job in jobs}):
        same = [job for job in jobs if job["seed"] == seed]
        if len({job["signature"] for job in same}) != 1:
            modes = sorted((job["mode"], job["signature"][:12]) for job in same)
            failures.append(f"seed {seed}: jobs disagree on the run signature: {modes}")
    return failures


def first_per_seed(jobs: List[Dict]) -> List[Dict]:
    seen: Dict[int, Dict] = {}
    for job in jobs:
        seen.setdefault(job["seed"], job)
    return list(seen.values())


def job_failures(jobs: List[Dict]) -> List[str]:
    failures: List[str] = []
    for index, job in enumerate(jobs):
        failures += [f"job {index} ({job['mode']}): {text}" for text in job["failures"]]
    return failures + check_signatures(jobs)


def end_to_end(jobs: List[Dict]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Metric values and, per metric, its sample count or spread."""
    values: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    for name in ("job_s", "setup_s", "run_ops_per_s", "peak_rss_mb"):
        samples = [job[name] for job in jobs]
        values[name] = median(samples)
        notes[name] = f"median of jobs, {spread(samples)}"
    per_seed = [job["sim"] for job in first_per_seed(jobs)]
    count = {key: sum(sim[key] for sim in per_seed) for key in SIM_COUNTS}
    basis = {
        "sim_read_p50_ms": f"read samples={count['read_samples']}",
        "sim_read_p99_ms": f"read samples={count['read_samples']}",
        "sim_write_p99_ms": f"write samples={count['write_samples']}",
        "sim_throughput_ops_s": f"ops={count['attempted']}",
        "stale_read_rate": f"judged reads={count['judged_reads']}",
        "stale_age_p99_ms": (
            f"stale reads={count['stale_reads']} of {count['judged_reads']} judged"
        ),
        "failed_op_rate": f"failed={count['failed']} of attempted={count['attempted']}",
    }
    for name, text in basis.items():
        values[name] = sum(sim[name] for sim in per_seed) / len(per_seed)
        notes[name] = f"mean of {len(per_seed)} seeds; {text} in all"
    return values, notes


def format_rows(rows: List[Tuple[str, float, str, str]]) -> List[str]:
    return [
        f"{name:<32} {value:>16.6g} {unit:<7} {note}" for name, value, unit, note in rows
    ]


def traced_metrics(jobs: List[Dict]) -> Tuple[Dict[str, float], List[str]]:
    spans = [job for job in jobs if job["mode"] == "spans"]
    plain = [job for job in jobs if job["mode"] == "gc"]
    keys = spans[0]["layers"].keys()
    values = {key: median([job["layers"][key] for job in spans]) for key in keys}
    values["gc.pause_s"] = median([job["gc"]["pause_s"] for job in plain])
    values["gc.pause_share"] = median([job["gc"]["pause_share"] for job in plain])
    values["gc.gen2_collections"] = median([job["gc"]["collections"][2] for job in plain])
    values["trace.overhead_ratio"] = (
        median([job["job_s"] for job in spans]) / median([job["job_s"] for job in plain])
    )

    lines = [
        f"traced jobs: {len(spans)}; gc-listener jobs: {len(plain)} "
        f"(gc.* comes from the listener jobs, layer times from the traced ones)",
        "",
        "self seconds by layer and phase, first traced job:",
    ]
    phases = spans[0]["phases"]
    layer_names = list(phases[0]["self_s"])
    header = f"{'layer':<14}" + "".join(f"{row['phase']:>10}" for row in phases) + f"{'job':>10}"
    lines.append(header)
    for layer in layer_names:
        cells = [row["self_s"][layer] for row in phases]
        lines.append(
            f"{layer:<14}" + "".join(f"{c:>10.3f}" for c in cells) + f"{sum(cells):>10.3f}"
        )
    walls = [row["wall_s"] for row in phases]
    lines.append(f"{'wall':<14}" + "".join(f"{w:>10.3f}" for w in walls) + f"{sum(walls):>10.3f}")
    setup = {
        layer: phases[0]["self_s"][layer] + phases[1]["self_s"][layer]
        for layer in layer_names
        if layer != "unattributed"
    }
    lines.append(f"largest layer of the setup phase (build+load): {max(setup, key=setup.get)}")
    return values, lines


def sum_check(jobs: List[Dict]) -> List[str]:
    """Layer self times + GC + unattributed must add up to each job's wall."""
    failures = []
    for job in jobs:
        if job["mode"] != "spans":
            continue
        for row in job["phases"]:
            total = sum(row["self_s"].values())
            if abs(total - row["wall_s"]) > 1e-6 * max(1.0, row["wall_s"]) + 1e-6:
                failures.append(
                    f"phase {row['phase']}: layer self times sum to {total:.6f} s, "
                    f"wall is {row['wall_s']:.6f} s"
                )
    return failures


def write_record(workload: str, seed: int, trace: int, prov: Dict, result: Dict,
                 jobs: List[Dict]) -> str:
    path = os.path.join(OUT_DIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    record = {"provenance": prov, "result": result, "jobs": jobs}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Optional[Dict]:
    """Run, check and print one workload; ``None`` when a job cannot run."""
    prov = provenance(workload, seed)
    for key, value in prov.items():
        print(f"{key}: {value}")
    seeds = sim_seeds(seed)
    try:
        if trace:
            # One simulation seed, so every per-layer count is exact.
            jobs = run_jobs(workload, seeds[:1], seconds, ("gc", "spans"), 1)
        else:
            jobs = run_jobs(workload, seeds, seconds, ("plain",), SIM_SEEDS)
    except JobFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return None

    failures = job_failures(jobs)
    print()
    if trace:
        failures += sum_check(jobs)
        values, lines = traced_metrics(jobs)
        selected = PER_LAYER
        print("\n".join(lines))
        print()
        print("per-layer metrics:")
        rows = [(name, values[name], unit, "") for name, unit in selected]
        extra = sorted(set(values) - {name for name, _ in selected})
        rows += [(name, values[name], "", "(printed only)") for name in extra]
        print("\n".join(format_rows(rows)))
    else:
        values, notes = end_to_end(jobs)
        selected = END_TO_END
        print(
            f"end-to-end metrics ({len(jobs)} jobs, simulation seeds "
            f"{sorted({job['seed'] for job in jobs})}):"
        )
        print("\n".join(format_rows(
            [(name, values[name], unit, notes[name]) for name, unit in END_TO_END + ALSO_PRINTED]
        )))

    for text in failures:
        print(f"CHECK FAILED: {text}")
    result = {
        "correct": not failures,
        "attempted": sum(job["sim"]["attempted"] for job in jobs),
        "failed": sum(job["sim"]["failed"] for job in jobs),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in selected},
    }
    record = write_record(workload, seed, trace, prov, result, jobs)
    print(f"record: {os.path.relpath(record, ROOT)}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload, or all.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"simulator sources not found under {os.path.join(ROOT, 'src')}\n")
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload in turn; the last line maps each workload to its result.
    results: Dict[str, Optional[Dict]] = {}
    for workload in WORKLOAD_NAMES:
        print(f"=== {workload} ===")
        results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
        print()
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
