"""qnetlim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

usage (from the repository root):
    python3 perfbench/run.py --workload {airport,lattice,buffer,closed-form}
                             --seed N --seconds S --trace {0,1}

One client runs the workload's ``qnetlim`` commands as subprocesses, one
at a time in a closed loop: each command starts after the previous one
exits. BLAS thread pools are capped at the number of usable cores. The
program gets only files and arguments; inputs are generated from
``--seed`` into ``.perfbench_work/`` before anything is timed.

A run measures a fixed number of passes, ``seconds // NOMINAL_PASS_S``
(at least one), so that sample counts and tail percentiles mean the same
on every commit; only on a machine so slow that the next pass would end
after ``OVERRUN * seconds`` does it stop early. Every command's output is
checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics: wall_s, cmd_s.tail,
setup_s, peak_rss_mb and ok_ratio. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (see tracer.py) plus the
tracing overhead. The last stdout line is one JSON object; a fuller
record (quartiles, sample counts, machine, known-defect probe) goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# seconds for one pass of each workload on a 2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4, scipy 1.17; fixes the pass count, so change it only with care
NOMINAL_PASS_S = {"airport": 13.0, "lattice": 9.0, "buffer": 8.0, "closed-form": 8.0}
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
OVERRUN = 1.25
TAIL_BEYOND = 10
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_NAME = "buffer.paper_formula_f0_below_1"

START = time.perf_counter()


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in BLAS_VARS:
        env[var] = str(usable_cores())
    return env


def qnetlim_argv(argv: List[str], optimize: bool = False) -> List[str]:
    return [sys.executable] + (["-O"] if optimize else []) + ["-m", "qnetlim"] + argv


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class CommandRun:
    tag: str
    seconds: float
    rss_mb: float
    exit_code: int
    error: Optional[str] = None


@dataclass
class PassRun:
    wall_s: float
    commands: List[CommandRun]
    traces: List[dict] = field(default_factory=list)


def run_child(argv: List[str], cwd: Path, env: Dict[str, str], stdout_path: Path):
    """Runs one subprocess to completion: (seconds, peak RSS in MB, exit code).

    The RSS is this child's own peak (wait4), not the cumulative
    RUSAGE_CHILDREN. The child is killed at the run deadline.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, RUN_DEADLINE_S - (t0 - START)), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    # reaped by wait4, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def run_pass(plan: workloads.Plan, work: Path, env, traced: bool) -> PassRun:
    """All of the plan's commands back to back, then their output checks."""
    runs, traces = [], []
    t0 = time.perf_counter()
    for cmd in plan.commands:
        argv = qnetlim_argv(cmd.argv)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), f"{cmd.tag}.spans.json", cmd.tag, "--"] + cmd.argv
        runs.append(CommandRun(cmd.tag, *run_child(argv, work, env, work / f"{cmd.tag}.out")))
    wall = time.perf_counter() - t0
    reference = workloads.load_reference()[plan.workload]
    for cmd, run in zip(plan.commands, runs):
        if run.exit_code != 0:
            run.error = f"exit code {run.exit_code}"
            continue
        try:
            cmd.check((work / f"{cmd.tag}.out").read_text(), reference)
        except Exception as exc:  # any malformed output is a failed command
            run.error = f"{type(exc).__name__}: {exc}"
        if traced:
            with open(work / f"{cmd.tag}.spans.json") as fh:
                traces.append(dict(json.load(fh), config=cmd.config))
    return PassRun(wall, runs, traces)


def measure_setup(plan: workloads.Plan, work: Path, env) -> List[float]:
    times = []
    argv = [sys.executable, str(HERE / "setup_load.py")] + plan.load_args
    for _ in range(SETUP_REPEATS):
        seconds, _, code = run_child(argv, work, env, work / "setup.out")
        if code != 0:
            raise RuntimeError(f"setup load failed with exit code {code}: see {work / 'setup.err'}")
        times.append(seconds)
    return times


def probe_known_defect(work: Path, env) -> dict:
    """Untimed: paper-formula decay with f0 < 1 breaks the heap invariant.

    ``tick_decay`` re-heapifies only after an eviction, and this mode
    reorders pairs, so ``assert heap.check_heap()`` fires at tick 2; under
    ``python -O`` the assert is skipped and a pair that is not the best
    stored one is dispatched. Reported in every result, outside every
    metric; a fix flips it to "absent".
    """
    probe = work / "probe"
    probe.mkdir()
    with open(probe / "probe.json", "w") as fh:
        json.dump(workloads.probe_config(), fh)
    argv = ["buffer", "--config", "probe.json"]
    *_, plain = run_child(qnetlim_argv(argv), probe, env, probe / "plain.out")
    asserted = "AssertionError" in (probe / "plain.err").read_text()
    *_, optimized = run_child(qnetlim_argv(argv, optimize=True), probe, env, probe / "optimized.out")
    wrong = workloads.non_max_dispatches((probe / "optimized.out").read_text()) if optimized == 0 else None
    if (plain != 0 and asserted) or wrong:
        status = "present"
    elif plain == 0 and wrong == 0:
        status = "absent"
    else:
        status = "inconclusive"
    return {"name": PROBE_NAME, "status": status, "exit_code": plain,
            "exit_code_python_O": optimized, "non_max_dispatches_python_O": wrong}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quartiles(values: List[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail(values: List[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    With TAIL_BEYOND samples or fewer no percentile qualifies, and the
    maximum is reported (percentile 100).
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return {"value": s[-1], "percentile": 100.0, "n": n}
    return {"value": s[n - TAIL_BEYOND - 1], "percentile": 100.0 * (n - TAIL_BEYOND) / n, "n": n}


def end_to_end(passes: List[PassRun], setup: List[float], attempted: int, failed: int):
    walls = [p.wall_s for p in passes]
    cmd_times = [c.seconds for p in passes for c in p.commands]
    rss = [max(c.rss_mb for c in p.commands) for p in passes]
    t = tail(cmd_times)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cmd_s.tail": (t["value"], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "wall_s": quartiles(walls),
        "cmd_s.tail": t,
        "setup_s": dict(quartiles(setup), samples=setup),
        "peak_rss_mb": quartiles(rss),
        "fail_ratio": failed / attempted,
        "commands": {c.tag: {k: [getattr(r, k) for p in passes for r in p.commands if r.tag == c.tag]
                             for k in ("seconds", "rss_mb")}
                     for c in passes[0].commands},
    }
    return metrics, detail


TIME, CALLS, SELF = "time", "calls", "self"


def _named(*names):
    return lambda n: n in names


def _prefixed(prefix):
    return lambda n: n.startswith(prefix)


# (metric, unit, how, span-name predicate); "how" is TIME (duration of the
# outermost matching spans), CALLS (their number), SELF (duration minus
# direct children) or the key of a per-span counter to sum
SPAN_METRICS = [
    ("cli.self_s", "s", SELF, _named("cli.main")),
    ("scenario.load_dataset_s", "s", TIME, _named("scenario.load_airport_dataset")),
    ("scenario.load_network_s", "s", TIME, _named("scenario.load_airport_network")),
    ("scenario.report_self_s", "s", SELF, _named("scenario.airport_report")),
    ("netgraph.load_edge_list_s", "s", TIME, _named("netgraph.load_edge_list")),
    ("netgraph.network_builds", "count", CALLS, _named("netgraph.Network.__init__")),
    ("netgraph.network_build_s", "s", TIME, _named("netgraph.Network.__init__")),
    ("netgraph.csgraph_calls", "count", CALLS, _prefixed("csgraph.")),
    ("netgraph.csgraph_sources", "count", "sources", _prefixed("csgraph.")),
    ("netgraph.csgraph_s", "s", TIME, _prefixed("csgraph.")),
    ("netgraph.matrices_calls", "count", CALLS, _named("netgraph.matrices")),
    ("netgraph.matrices_s", "s", TIME, _named("netgraph.matrices")),
    ("netgraph.centrality_s", "s", TIME, _prefixed("netgraph.centrality")),
    ("netgraph.critical_self_s", "s", SELF, _named("netgraph.critical_parameters")),
    ("netgraph.avg_weight_calls", "count", CALLS, _named("netgraph.average_effective_weight")),
    ("netgraph.avg_weight_s", "s", TIME, _named("netgraph.average_effective_weight")),
    ("netgraph.clustering_s", "s", TIME, _named("netgraph.clustering_coefficient")),
    ("netgraph.metrics_s", "s", TIME, _named(
        "netgraph.link_sparsity", "netgraph.connection_strength",
        "netgraph.total_connection_strength", "netgraph.sparsity_index")),
    ("netgraph.evolve_self_s", "s", SELF, _named("netgraph.evolve")),
    ("netgraph.shortest_path_s", "s", TIME, _named("netgraph.shortest_path")),
    ("buffersim.run_s", "s", TIME, _named("buffersim.run")),
    ("buffersim.tick_decay_s", "s", TIME, _named("buffersim.MemoryHeap.tick_decay")),
    ("buffersim.check_heap_calls", "count", CALLS, _named("buffersim.MemoryHeap.check_heap")),
    ("buffersim.check_heap_s", "s", TIME, _named("buffersim.MemoryHeap.check_heap")),
    ("buffersim.trace_csv_s", "s", TIME, _named("buffersim.trace_csv")),
    ("buffersim.trace_rows", "count", "rows", _named("buffersim.run")),
    ("buffersim.evictions", "count", "evictions", _named("buffersim.run")),
    ("repeater.calls", "count", CALLS, _prefixed("repeater.")),
    ("repeater.s", "s", TIME, _prefixed("repeater.")),
    ("qstate.calls", "count", CALLS, _prefixed("qstate.")),
    ("qstate.s", "s", TIME, _prefixed("qstate.")),
]
OTHER_LAYER_METRICS = [
    ("cli.import_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("buffersim.run_s.a", "s"),
    ("buffersim.run_s.b", "s"),
    ("buffersim.useful_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]
LAYER_UNITS = {m[0]: m[1] for m in SPAN_METRICS + OTHER_LAYER_METRICS}


def span_value(spans: List[list], how, pred) -> float:
    matching = [i for i, s in enumerate(spans) if pred(s[0])]
    if how == SELF:
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in matching)
    outer = []
    for i in matching:
        parent = spans[i][3]
        while parent >= 0 and not pred(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            outer.append(spans[i])
    if how == TIME:
        return sum(s[2] - s[1] for s in outer)
    if how == CALLS:
        return len(outer)
    return sum((s[4] or {}).get(how, 0) for s in outer)


def layer_metrics(traced: PassRun, untraced: PassRun) -> Dict[str, float]:
    recs = traced.traces
    out = {name: sum(span_value(r["spans"], how, pred) for r in recs)
           for name, _unit, how, pred in SPAN_METRICS}
    out["cli.import_s"] = statistics.median(r["import_s"] for r in recs)
    out["cli.out_bytes"] = sum(r["out_bytes"] for r in recs)
    run_spans = _named("buffersim.run")
    for cfg in ("a", "b"):
        out[f"buffersim.run_s.{cfg}"] = sum(
            span_value(r["spans"], TIME, run_spans) for r in recs if r["config"] == cfg)
    sims = {k: sum(span_value(r["spans"], k, run_spans) for r in recs)
            for k in ("inserts", "dispatches", "rejects")}
    offered = sims["inserts"] + sims["rejects"]
    out["buffersim.useful_ratio"] = sims["dispatches"] / offered if offered else 0.0
    out["trace.wall_s"] = traced.wall_s
    out["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return out


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unavailable (no git)"
    return out.stdout.strip() or "unavailable"


def mem_total_mb() -> float:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20


def machine_record(root: Path, args) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {
        "nproc": usable_cores(),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": mem_total_mb(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {var: str(usable_cores()) for var in BLAS_VARS},
        "client": "one client, closed loop, one subprocess at a time",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qnetlim" / "cli.py").is_file():
        print(f"error: no qnetlim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = fresh_dir(ROOT / WORK_DIR / name)
    env = child_env(ROOT)
    plan = workloads.make(args.workload, args.seed, ROOT, work)
    n_passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    if args.trace:
        # each untraced pass is paired with a traced one
        n_passes = max(1, n_passes // 2)

    # untimed: compiles bytecode and warms the file cache
    run_child([sys.executable, str(HERE / "setup_load.py")] + plan.load_args, work, env, work / "warm.out")
    probe = probe_known_defect(work, env)
    setup = [] if args.trace else measure_setup(plan, work, env)

    untraced, traced = [], []
    t0 = time.perf_counter()
    longest = 0.0
    while len(untraced) < n_passes:
        t = time.perf_counter()
        untraced.append(run_pass(plan, work, env, traced=False))
        if args.trace:
            traced.append(run_pass(plan, work, env, traced=True))
        longest = max(longest, time.perf_counter() - t)
        # on a machine far slower than the nominal one, stop before overrunning
        if time.perf_counter() - t0 + longest > OVERRUN * args.seconds:
            break
    all_runs = [c for p in untraced + traced for c in p.commands]
    errors = [{"tag": c.tag, "error": c.error} for c in all_runs if c.error]
    attempted, failed = len(all_runs), len(errors)

    if args.trace:
        per_pass = [layer_metrics(t, u) for t, u in zip(traced, untraced)]
        metrics = {m: (statistics.median(p[m] for p in per_pass), LAYER_UNITS[m]) for m in LAYER_UNITS}
        wrapped = set().union(*(r["wrapped"] for r in traced[0].traces))
        detail = {"layers_per_pass": per_pass, "wrapped": sorted(wrapped)}
        spans = [dict(r, pass_index=i) for i, t in enumerate(traced) for r in t.traces]
        with open(ROOT / WORK_DIR / f"{name}-spans.json", "w") as fh:
            json.dump(spans, fh)
    else:
        metrics, detail = end_to_end(untraced, setup, attempted, failed)

    record = {
        "machine": machine_record(ROOT, args),
        "passes": {"planned": n_passes, "run": len(untraced)},
        "known_defects": [probe],
        "errors": errors,
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = ROOT / WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work)

    print(f"# machine: {json.dumps(record['machine'])}")
    print(f"# {args.workload} seed={args.seed} passes={len(untraced)} trace={args.trace}")
    print(f"# known defect {probe['name']}: {probe['status']}")
    for e in errors:
        print(f"# FAILED {e['tag']}: {e['error']}")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v!r} {u}")
    if not args.trace:
        w, t = detail["wall_s"], detail["cmd_s.tail"]
        print(f"# wall_s q1={w['q1']!r} q3={w['q3']!r} n={w['n']}; cmd_s.tail is "
              f"p{t['percentile']:.1f} of n={t['n']}; fail_ratio={detail['fail_ratio']!r}")
    print(f"# record: {results / (name + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
