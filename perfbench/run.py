"""Benchmark of the gmtwist certifier: time to verdict, peak RSS, set-up time,
and traced per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` to run every workload in one command.
Run it from anywhere inside a source checkout; it needs ``src/gmtwist``.

Load model: a closed loop with one client.  Each run is one fresh
``python -m gmtwist.cli ...`` process with ``src`` on PYTHONPATH, started only
after the previous run has ended.  A fresh process is needed because gmtwist's
``lru_cache``d constructions live as long as the process and a CLI user pays
for them on every invocation.  Each child's CPU time and peak RSS come from
``os.wait4`` on that child alone.  The workloads are fixed parameter pairs, so
the seed only sets the shuffled order in which runs of different workloads are
interleaved (with ``all``); it is recorded with the results.

Each workload is run until the next run would end after S seconds, and at
least once.  Every run has a hard timeout; a run that times out, exits with
the wrong code or fails its output check (perfbench/checks.py) counts as
failed.  End-to-end metrics (``--trace 0``) are medians over the runs that
finished:

    wall_s       spawn to exit of the CLI process
    wall_s_tail  the highest percentile with at least ten samples beyond it;
                 with ten samples or fewer it is the maximum (see "detail")
    cpu_s        user + sys time of the child
    peak_rss_mb  ru_maxrss of the child
    setup_s      a fresh process that only runs ``import gmtwist.cli``

``--trace 1`` also makes one traced run per workload (perfbench/traced.py) and
reports the per-layer metrics in LAYER_METRICS plus ``trace.overhead_s``, the
traced wall time minus the untraced median wall_s.  The benchmark process
itself imports nothing heavy: Linux passes a parent's RSS high-water mark on
to the children it spawns, so a large parent would inflate ``ru_maxrss``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the provenance, each metric by name and unit, and the per-run detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKS = HERE / "checks.py"
TRACED = HERE / "traced.py"

SETUP_PROBES = 5
# A driver run must end within 180 s; no run may start a timeout past this.
HARD_LIMIT_S = 165.0
CHECK_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    kind: str  # "certify" or "switch"
    q: int
    e: int
    flags: tuple[str, ...]
    timeout_s: float
    why: str

    @property
    def output(self) -> str:
        return "cert.json" if self.kind == "certify" else "switched.g6"

    def argv(self, out: str) -> list[str]:
        return [self.kind, "--q", str(self.q), "--e", str(self.e), *self.flags, "--out", out]


WORKLOADS = {
    "certify-q2e2": Workload(
        "certify", 2, 2, (), 60.0,
        "default certify path, 155 vertices; about 90% of it is exact char polys",
    ),
    "certify-q3e2-comb": Workload(
        "certify", 3, 2, ("--skip-charpoly", "--invariant", "clique-counts"), 120.0,
        "1210 vertices and no char polys: BFS intersection arrays, clique counts, pairwise construction",
    ),
    "switch-q4e2": Workload(
        "switch", 4, 2, (), 90.0,
        "5797 vertices over GF(4): builds and writes a large graph; the only graphio and memory workload",
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "wall_s_tail": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metric -> unit.  Layers are gmtwist's modules.
LAYER_METRICS = {
    "charpoly.char_poly_exact.calls": "count",
    "charpoly.dim_sum": "count",
    "charpoly.dim_max": "count",
    "charpoly.self_s": "s",
    "graph.intersection_array.calls": "count",
    "graph.intersection_array.bfs_roots": "count",
    "graph.intersection_array.self_s": "s",
    "graph.vertex_invariant_distribution.calls": "count",
    "graph.vertex_invariant_distribution.vertices": "count",
    "graph.vertex_invariant_distribution.self_s": "s",
    "graph.validate_gm.calls": "count",
    "graph.check_isomorphism.self_s": "s",
    "graph.repeat_calls": "count",
    "graph.self_s": "s",
    "construct.pairs_compared": "count",
    "construct.canonical_grassmann.self_s": "s",
    "construct.block_graph.self_s": "s",
    "construct.designs.self_s": "s",
    "construct.cache_hit_ratio": "ratio",
    "construct.self_s": "s",
    "subspace.enumerate_subspaces.items": "count",
    "subspace.vector_mask.calls": "count",
    "subspace.vector_mask.self_s": "s",
    "subspace.apply_polarity.calls": "count",
    "subspace.self_s": "s",
    "gf.rref_rows.calls": "count",
    "gf.self_s": "s",
    "graphio.to_graph6.self_s": "s",
    "graphio.bytes_out": "B",
    "graphio.self_s": "s",
    "certify.run_certification.total_s": "s",
    "certify.self_s": "s",
    "cli.main.total_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

DESIGN_FUNCTIONS = ("pg_design", "jt_design", "verify_2_design", "block_intersection_sizes")
CACHED_CONSTRUCTORS = ("canonical_grassmann", "twisted_grassmann", "pg_design", "jt_design")


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    timed_out: bool = False


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GMTWIST_BUDGET", None)
    return env


def spawn(cmd: list[str], timeout: float, stderr_path: Path) -> tuple[Run, int | None]:
    """Run cmd to completion or until timeout; (measurements, exit code or None)."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        pidfd = os.pidfd_open(proc.pid)
        reaped = False
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            wall = perf_counter() - start
        finally:
            if not reaped:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, timed_out=timed_out)
    return run, None if timed_out else proc.returncode


def stderr_tail(path: Path) -> str:
    return path.read_text(errors="replace").strip()[-300:]


def check_output(wl: Workload, out: Path) -> list[str]:
    """Run perfbench/checks.py in its own process (see the module docstring)."""
    cmd = [sys.executable, str(CHECKS), wl.kind, str(wl.q), str(wl.e), str(out)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHECK_TIMEOUT_S)
        return json.loads(done.stdout.strip().splitlines()[-1])["problems"]
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        return [f"output check did not complete: {exc!r}"]


def run_workload(wl: Workload, workdir: Path, timeout: float, trace_out: Path | None = None) -> Run:
    """One CLI run of wl in a fresh directory, with its output checked."""
    rundir = Path(tempfile.mkdtemp(dir=workdir))
    out = rundir / wl.output
    if trace_out is None:
        cmd = [sys.executable, "-m", "gmtwist.cli", *wl.argv(str(out))]
    else:
        cmd = [sys.executable, str(TRACED), str(trace_out), *wl.argv(str(out))]
    run, status = spawn(cmd, timeout, rundir / "stderr")
    if run.timed_out:
        run.problems.append(f"timed out after {timeout:.0f} s")
    elif status != 0:
        run.problems.append(f"exit code {status}: {stderr_tail(rundir / 'stderr')}")
    else:
        run.problems.extend(check_output(wl, out))
    shutil.rmtree(rundir)
    return run


def setup_probe(workdir: Path) -> Run:
    run, status = spawn([sys.executable, "-c", "import gmtwist.cli"], 60.0, workdir / "setup.stderr")
    if status != 0:
        run.problems.append(f"import gmtwist.cli failed ({status}): {stderr_tail(workdir / 'setup.stderr')}")
    return run


def measure(names: list[str], seconds: float, rng: random.Random, workdir: Path, deadline: float):
    """Closed loop: runs of the named workloads, one at a time, each workload
    until its next run would end after `seconds` of its own run time."""
    runs: dict[str, list[Run]] = {name: [] for name in names}
    order = []
    while True:
        pending = [
            n for n in names
            if not runs[n]
            or sum(r.wall_s for r in runs[n]) + statistics.median(r.wall_s for r in runs[n]) <= seconds
        ]
        if not pending:
            return runs, order
        rng.shuffle(pending)
        for name in pending:
            wl = WORKLOADS[name]
            runs[name].append(run_workload(wl, workdir, min(wl.timeout_s, deadline - perf_counter())))
            order.append(name)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum, as percentile 100, when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(runs: list[Run], setup: list[Run]) -> tuple[dict, dict]:
    finished = [r for r in runs if not r.timed_out] or runs
    walls = [r.wall_s for r in finished]
    tail_value, tail_pct = tail(walls)
    values = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(r.cpu_s for r in finished),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in finished),
        "setup_s": statistics.median(r.wall_s for r in setup),
    }
    detail = {
        "samples": len(walls),
        "wall_s_tail_percentile": tail_pct,
        "wall_s_runs": walls,
        "cpu_s_runs": [r.cpu_s for r in finished],
        "peak_rss_mb_runs": [r.peak_rss_mb for r in finished],
        "setup_s_runs": [r.wall_s for r in setup],
        "problems": [p for r in runs for p in r.problems][:10],
    }
    return values, detail


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced run, and any inconsistency in its spans."""
    spans = trace["spans"]
    counters = trace["counters"]
    self_s = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    by_name: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    total: dict[str, float] = {}
    for (name, start, end, _), own in zip(spans, self_s):
        by_name[name] = by_name.get(name, 0.0) + own
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        total[name] = total.get(name, 0.0) + end - start
    roots = [end - start for name, start, end, parent in spans if parent < 0]
    problems = []
    if len(roots) != 1:
        problems.append(f"trace has {len(roots)} root spans, expected 1")
    elif abs(sum(by_layer.values()) - roots[0]) > 1e-6 * max(1.0, roots[0]):
        problems.append(f"layer self times sum to {sum(by_layer.values())}, root span is {roots[0]}")
    hits = sum(counters.get(f"construct.{f}.hits", 0) for f in CACHED_CONSTRUCTORS)
    lookups = hits + sum(counters.get(f"construct.{f}.misses", 0) for f in CACHED_CONSTRUCTORS)
    metrics = {}
    for name in LAYER_METRICS:
        if name == "construct.designs.self_s":
            value = sum(by_name.get(f"construct.{f}", 0.0) for f in DESIGN_FUNCTIONS)
        elif name == "construct.cache_hit_ratio":
            value = hits / lookups if lookups else 0.0
        elif name == "trace.overhead_s":
            value = traced_wall - untraced_wall
        elif name.endswith(".total_s"):
            value = total.get(name[: -len(".total_s")], 0.0)
        elif name.count(".") == 1 and name.endswith(".self_s"):
            value = by_layer.get(name.split(".")[0], 0.0)
        elif name.endswith(".self_s"):
            value = by_name.get(name[: -len(".self_s")], 0.0)
        else:
            value = counters.get(name, 0)
        metrics[name] = value
    return metrics, problems


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "load_model": "closed loop, 1 client, one fresh CLI process per run",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (SRC / "gmtwist" / "cli.py").is_file():
        print(f"error: no gmtwist sources under {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = perf_counter() + HARD_LIMIT_S * len(names)
    rng = random.Random(args.seed)
    prov = provenance(args.seed)
    workdir_parent = ROOT / ".perfbench-work"
    workdir_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workdir_parent))
    try:
        warm = setup_probe(workdir)  # also compiles the .pyc files; not timed
        if warm.problems:
            print("error: " + warm.problems[0], file=sys.stderr)
            return 2
        setup = [setup_probe(workdir) for _ in range(SETUP_PROBES)]
        runs, order = measure(names, args.seconds, rng, workdir, deadline)
        prov["run_order"] = order
        results = {}
        for name in names:
            values, detail = end_to_end(runs[name], setup)
            results[name] = {"values": values, "units": dict(END_TO_END_UNITS), "detail": detail}
        if args.trace:
            traced_order = list(names)
            rng.shuffle(traced_order)
            for name in traced_order:
                wl = WORKLOADS[name]
                trace_out = workdir / f"{name}.trace.json"
                timeout = min(2 * wl.timeout_s, deadline - perf_counter())
                run = run_workload(wl, workdir, timeout, trace_out)
                runs[name].append(run)
                untraced = results[name]["values"]["wall_s"]
                if not run.problems:
                    with open(trace_out) as fh:
                        trace = json.load(fh)
                    values, problems = layer_metrics(trace, run.wall_s, untraced)
                    run.problems.extend(problems)
                    results[name]["detail"]["not_traced"] = trace["not_traced"]
                    results[name]["detail"]["absent_from_gmtwist"] = trace["absent"]
                    results[name]["detail"]["traced_wall_s"] = run.wall_s
                else:
                    values = {metric: 0 for metric in LAYER_METRICS}
                results[name]["values"] = values
                results[name]["units"] = dict(LAYER_METRICS)
                results[name]["detail"]["problems"].extend(run.problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_parent.rmdir()
        except OSError:
            pass

    print("provenance " + json.dumps(prov))
    metrics = {}
    for name in names:
        result = results[name]
        detail = result["detail"]
        attempted, failed = len(runs[name]), sum(1 for r in runs[name] if r.problems)
        print(f"{name}: error_rate = {failed / attempted} ({failed} of {attempted} runs failed)")
        for metric, value in result["values"].items():
            unit = result["units"][metric]
            note = ""
            if metric == "wall_s_tail":
                note = f"  (p{detail['wall_s_tail_percentile']:.4g} of {detail['samples']} samples)"
            print(f"{name}: {metric} = {value} {unit}{note}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"{name}: detail " + json.dumps(detail))
    attempted = sum(len(runs[n]) for n in names)
    failed = sum(1 for n in names for r in runs[n] if r.problems)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
