"""treematch benchmark: seeded workloads run through ``treematch.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload aug-sparse --seed 1 --seconds 20 --trace 0

One client, closed loop: each instance starts when the previous one
has been checked.  The run generates its inputs from the
seed, writes them under ``.bench_work/``, times one warm-up instance,
then runs instances for ``--seconds`` (stopping at a round boundary of
the workload's instance mix) and checks every report with ``check.py``.
Every fraction of a second it times the reference kernel of
``calibrate.py`` in a child process, and every time metric is scaled to
the nominal host speed by the kernel timings around it; the unscaled
values are printed too.  Every metric is printed by name with its unit;
the last line of stdout is one JSON object.  ``--trace 1`` instead
replays the workload's trace set alternately untraced and traced and
reports per-layer metrics.
Exit code 0 on a completed run, also when some instances failed (they
are counted and ``correct`` is false); 1 when fewer than 11 instances
passed; 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 0.15  # instance time between two kernel timings
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_instance", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_LAYER_MS = (
    "pmst.greedy_augment", "pmst.build_tree_containing_matching", "pmst.min_pmst_two_valued",
    "pmst.pmst_feasible", "matching.maximum_matching", "matching.tree_perfect_matching",
    "matroid.min_weight_common_base", "matroid.GraphicMatroid.prepare",
    "matroid.PartitionMatroid.prepare", "sbst.min_sbst_bipartite", "sbst.is_strongly_balanced",
    "graph.WeightedGraph", "graph.parse_graph", "graph.connected_components",
    "graph.bipartition_of", "graph.as_bipartitioned_tree", "graph.format_graph",
    "oracle.enumerate_spanning_trees", "oracle.brute_force_min_pmst",
    "oracle.brute_force_min_sbst", "oracle.brute_force_opt_aug",
    "reductions.reduce_hc_to_minpmst", "reductions.reduce_sat_to_sbst",
    "reductions.replace_leaves", "reductions.parse_cnf_layout", "cli.main",
)
_LAYER_CALLS = (
    "pmst.greedy_augment", "matching.maximum_matching", "matching.tree_perfect_matching",
    "matroid.min_weight_common_base", "sbst.is_strongly_balanced", "graph.WeightedGraph",
)
PER_LAYER = (
    tuple((f"{name}.self_ms", "ms") for name in _LAYER_MS)
    + tuple((f"{name}.calls", "count") for name in _LAYER_CALLS)
    + (
        ("pmst.added_edges", "count"),
        ("matroid.rounds", "count"),
        ("oracle.trees_enumerated", "count"),
        ("cli.report_bytes", "bytes"),
        ("trace.overhead_frac", "ratio"),
    )
)


class Attempt:
    """One instance run: summed wall and CPU time of its CLI calls, and
    the failure, if any."""

    def __init__(self, inst: workloads.Instance, cli) -> None:
        self.wall = self.cpu = 0.0
        self.report_bytes = 0
        self.error: str | None = None
        outputs = []
        try:
            for argv in inst.steps:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t, c = time.perf_counter(), time.process_time()
                    try:
                        rc = cli.main(list(argv))
                    finally:
                        self.wall += time.perf_counter() - t
                        self.cpu += time.process_time() - c
                outputs.append((rc, out.getvalue()))
                self.report_bytes += len(outputs[-1][1])
            inst.check(outputs)
        except (Exception, SystemExit) as exc:  # any failure of one instance is counted, not fatal
            self.error = f"{inst.kind} {' | '.join(' '.join(a) for a in inst.steps)}: {exc!r}"


class Tally:
    """Attempts and failures, plus wall and CPU times of the instances
    that passed their check, each with the calibration mark it ran at."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.marks: list[int] = []

    def run(self, inst: workloads.Instance, cli, mark: int = 0) -> Attempt:
        gc.collect()  # garbage of the previous instance is not charged to this one
        a = Attempt(inst, cli)
        self.attempted += 1
        if a.error is None:
            self.walls.append(a.wall)
            self.cpus.append(a.cpu)
            self.marks.append(mark)
        else:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {a.error}", file=sys.stderr)
        return a


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import treematch.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t


def setup(workload: workloads.Workload, seed: int, workdir: Path, cli, tally: Tally,
          speed: calibrate.HostSpeed):
    """Build the pool SETUP_REPEATS times, each after a fresh import, and
    run one warm-up instance, with a kernel timing between any two.
    Returns the pool and the scaled and unscaled set-up parts."""
    mark = speed.measure()
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        imports.append((_import_seconds(), mark))
        t = time.perf_counter()
        pool = workload.build(seed, workdir)
        gens.append((time.perf_counter() - t, mark))
        mark = speed.measure()
    warm = tally.run(pool[0], cli, mark)
    speed.measure()
    raw = {"import": imports, "generate": gens, "warm-up": [(warm.wall, mark)]}
    scaled = {k: statistics.median(t * speed.factor(m) for t, m in v) for k, v in raw.items()}
    unscaled = {k: statistics.median(t for t, _ in v) for k, v in raw.items()}
    return pool, scaled, unscaled


def timed_loop(workload: workloads.Workload, pool, seconds: float, cli, tally: Tally,
               speed: calibrate.HostSpeed) -> None:
    """Cycle through the pool until ``seconds`` have passed and a round of
    the mix is complete; go on while fewer than MIN_SAMPLES instances
    succeeded, unless some failed (the run is then wrong anyway).  The
    kernel is timed before the first instance, after each
    CALIBRATE_EVERY_S of instance time, and after the last instance."""
    mark = speed.measure()
    start = time.perf_counter()
    since = 0.0
    i = 0
    while True:
        since += tally.run(pool[i % len(pool)], cli, mark).wall
        i += 1
        if since >= CALIBRATE_EVERY_S:
            mark, since = speed.measure(), 0.0
        if (
            i % workload.round_length == 0
            and time.perf_counter() - start >= seconds
            and (len(tally.walls) >= MIN_SAMPLES or tally.failed)
        ):
            break
    if since:
        speed.measure()


def end_to_end(tally: Tally, setup_s: float, factor=lambda mark, cpu=False: 1.0) -> dict[str, float]:
    """The end-to-end metrics, each time scaled by ``factor`` at the
    calibration mark it was taken at."""
    walls = sorted(w * factor(m) for w, m in zip(tally.walls, tally.marks))
    cpus = [c * factor(m, cpu=True) for c, m in zip(tally.cpus, tally.marks)]
    n = len(walls)
    if n < MIN_SAMPLES:
        raise SystemExit(f"error: only {n} of {tally.attempted} instances succeeded")
    return {
        "instances_per_s": n / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": walls[n - MIN_SAMPLES] * 1e3,
        "cpu_ms_per_instance": sum(cpus) / n * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_passes(workload: workloads.Workload, pool, seconds: float, cli, tally: Tally, trace_file: Path):
    """Alternate untraced and traced passes over the trace set until
    ``seconds`` have passed; per-layer metrics are per pass."""
    import tracer  # only the traced run loads it

    trace_set = pool[: workload.trace_rounds * workload.round_length]
    tr = tracer.Tracer()
    plain = traced = 0.0
    passes = report_bytes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain += sum(tally.run(inst, cli).wall for inst in trace_set)
        tr.install()
        try:
            for k, inst in enumerate(trace_set):
                tr.instance = passes * len(trace_set) + k
                a = tally.run(inst, cli)
                traced += a.wall
                report_bytes += a.report_bytes
        finally:
            tr.uninstall()
        passes += 1
    tr.write(str(trace_file))
    self_s, calls = tr.self_times()
    metrics = {f"{name}.self_ms": self_s.get(name, 0.0) * 1e3 / passes for name in _LAYER_MS}
    metrics.update({f"{name}.calls": calls[name] / passes for name in _LAYER_CALLS})
    metrics["pmst.added_edges"] = tr.counts["pmst.added_edges"] / passes
    metrics["matroid.rounds"] = calls["matroid.GraphicMatroid.prepare"] / passes
    metrics["oracle.trees_enumerated"] = tr.counts["oracle.trees_enumerated"] / passes
    metrics["cli.report_bytes"] = report_bytes / passes
    metrics["trace.overhead_frac"] = traced / plain - 1
    ranking = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
    print(f"trace: {passes} passes over {len(trace_set)} instances, spans in {trace_file}")
    print("largest self times per pass: " + ", ".join(f"{k} {v * 1e3 / passes:.1f} ms" for k, v in ranking))
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "treematch" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'treematch'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treematch.cli

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    speed = calibrate.HostSpeed()
    try:
        tally = Tally()
        pool, parts, raw_parts = setup(workload, args.seed, workdir, treematch.cli, tally, speed)
        warmup_failed = tally.failed > 0
        tally = Tally()
        print(f"workload {workload.name}  seed {args.seed}  pool {len(pool)} instances")
        if args.trace:
            trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.csv"
            metrics = traced_passes(workload, pool, args.seconds, treematch.cli, tally, trace_file)
            units = dict(PER_LAYER)
        else:
            timed_loop(workload, pool, args.seconds, treematch.cli, tally, speed)
            metrics = end_to_end(tally, sum(parts.values()), speed.factor)
            raw = end_to_end(tally, sum(raw_parts.values()))
            units = dict(END_TO_END)
    finally:
        speed.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"  {name:<44} {value:14.4f} {units[name]}")
    if not args.trace:
        n = len(tally.walls)
        kernel = statistics.median(speed.walls)
        print(f"  latency_tail_ms is p{100 * (n - 10) // n} of {n} samples (10 beyond it)")
        print("  setup_s parts: " + ", ".join(f"{k} {v:.3f} s" for k, v in parts.items()))
        print(f"  times above are scaled to a host where the kernel takes {calibrate.NOMINAL_S * 1e3:g} ms;"
              f" here it took {kernel * 1e3:.1f} ms (median of {len(speed.walls)}). Unscaled:")
        for name, value in raw.items():
            print(f"  raw_{name:<40} {value:14.4f} {units[name]}")
    print(f"  {'failed_frac':<44} {tally.failed / tally.attempted:14.4f} ratio"
          f"  ({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0 and not warmup_failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
