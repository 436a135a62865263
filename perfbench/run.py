"""The trunclab benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--profile N] [--out DIR]

Run it from the root of a checkout; it imports the package from `src/`.

A run builds the workload's fixed job list from the seed and runs the whole
list again and again (a "pass"), one job at a time, for about `--seconds`.
Every pass runs in a fresh process (`pass_child.py`), so a pass never reuses
what an earlier pass left in memory.  With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it first runs untraced passes, then
traced ones, and prints the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  A result file, stamped with the Python version,
nproc, git commit, seed and pass count, goes to `--out` (default
`perfbench/out/results`), with the run's other files; `perfbench/compare.py`
compares two such result sets.

End-to-end metrics (`--trace 0`):
  setup_s       time from starting a process until it has imported
                trunclab: the median over the run's passes and the
                SETUP_PROBES processes started before them
  wall_s        time to finish the job list once, each job at its median
                over the passes (see job_times)
  cmd_p50_ms    median over the job list of a command's latency (its
                median over the passes): a CLI process for cli-session, an
                in-process suite call for the other workloads
  cmd_tail_ms   the highest percentile of those latencies with at least 10
                commands beyond it; the percentile and count are printed
  ok_frac       jobs whose output passed its checks / jobs attempted; the
                text output also prints failed_frac = 1 - ok_frac
  peak_rss_mb   peak resident memory of a pass's process, or for cli-session
                of its largest CLI process, the largest over the passes

The four timings are given at a reference speed of the machine: each job's
and each set-up's measured time is multiplied by workloads.REFERENCE_S over
what workloads.calibrate() took next to it (see job_times).  The same
timings as measured are printed on the line starting "as measured" and kept
in the result file.
"""

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import math
import os
import platform
import pstats
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_CHILD = HERE / "pass_child.py"
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms",
    "ok_frac": "frac", "peak_rss_mb": "MB",
}
# Four passes at least, so that every job's median is taken over four
# times and it runs twice under each of the run's two hash seeds.
MIN_PASSES = 4
# Processes a run starts that only import trunclab, before its passes: they
# warm the file cache, and with the passes they give setup_s its samples.
SETUP_PROBES = 8
# Share of a traced run spent on untraced passes, the base of the overhead.
UNTRACED_SHARE = 0.3

# Which layer should move which end-to-end metric, on which workloads, and
# on which the layer is predicted to do (almost) nothing.  A traced run
# checks its own workload's side of each row from the layers' busy share.
ROWS = (
    ("fractions + seqspace", ("seqspace",), "wall_s",
     ("seq-battery",), ("frame-oracle",)),
    ("kernels convexity + conditions", ("kernels",), "wall_s; cmd_p50_ms",
     ("seq-battery", "cli-session"), ("frame-oracle", "boolean-sweep")),
    ("frames build + oracle + eval", ("frames",), "wall_s",
     ("frame-oracle",), ("seq-battery",)),
    ("gba validate + equivalences", ("gba", "equivalences"), "wall_s; cmd_tail_ms",
     ("boolean-sweep", "cli-session"), ("seq-battery", "frame-oracle")),
    ("elements + spaces.nonstar", ("elements", "spaces"), "wall_s",
     ("boolean-sweep",), ("frame-oracle",)),
    ("instances + report + cli", ("instances", "report", "cli"), "cmd_p50_ms, setup_s",
     ("cli-session",), ("seq-battery", "frame-oracle", "boolean-sweep")),
)
MOVES_MIN_SHARE = 0.05   # a layer that should move a metric is busy >= 5%
FLAT_MAX_SHARE = 0.02    # a layer predicted flat is busy <= 2%


@dataclass
class Context:
    workload: str
    seed: int
    work_dir: Path
    env: dict
    pass_index: int = 0
    spans_file: Path = None   # the next traced pass writes its spans here


@dataclass
class Pass:
    times: list        # seconds each job took, as measured
    records: list
    problems: list
    setup: float       # seconds from starting the process to trunclab imported
    rss_mb: float
    pid: int
    metrics: dict      # per-layer metrics of a traced pass, else None
    leftovers: list    # wrappers a traced pass left in place
    calibrations: list  # workloads.calibrate() before the first job and after each

    def speeds(self):
        """Per job, the reference speed over the speed measured around it."""
        cal = self.calibrations
        return [2 * workloads.REFERENCE_S / (a + b) for a, b in zip(cal, cal[1:])]

    def scaled_times(self):
        """Each job's time at the reference speed."""
        return [t * s for t, s in zip(self.times, self.speeds())]

    def scaled_setup(self):
        return self.setup * workloads.REFERENCE_S / self.calibrations[0]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="after measuring, profile one pass and keep the top N entries")
    parser.add_argument("--out", help="result-set directory (default perfbench/out/results)")
    return parser.parse_args(argv)


# --- passes ------------------------------------------------------------------

def _run_child(argv, ctx):
    """Run a pass process; kill it and what it started if it overruns."""
    hash_seed = workloads.pass_hash_seed(ctx.workload, ctx.seed, ctx.pass_index)
    env = dict(ctx.env, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"pass {ctx.pass_index} took over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"pass {ctx.pass_index} exited {proc.returncode}: "
                           f"{stderr.strip()[-2000:]}")


def run_pass(jobs, ctx, trace=False):
    """One pass of the job list in a fresh process."""
    spec_file = ctx.work_dir / "pass.json"
    result_file = ctx.work_dir / "pass-result.json"
    spans_file = ctx.spans_file if trace else None
    spec_file.write_text(json.dumps({
        "jobs": [vars(job) for job in jobs], "pass_index": ctx.pass_index,
        "trace": trace, "summary_file": str(ctx.work_dir / "child-summary.json"),
        "spans_file": str(spans_file) if spans_file else None,
    }), encoding="utf-8")
    result_file.unlink(missing_ok=True)
    start = time.perf_counter()
    _run_child([sys.executable, str(PASS_CHILD), str(spec_file), str(result_file)], ctx)
    r = json.loads(result_file.read_text(encoding="utf-8"))
    if spans_file:
        ctx.spans_file = None
    rss = r["rss_children_mb"] if ctx.workload == "cli-session" else r["rss_self_mb"]
    return Pass(r["times"], r["records"], r["problems"], r["ready"] - start, rss,
                r["pid"], r.get("metrics"), r.get("leftover_wrappers", []),
                r["calibrations"])


def run_passes(jobs, ctx, budget_s, trace=False, min_passes=1):
    """Whole passes until the next one would end past the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, ctx, trace))
        ctx.pass_index += 1
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes and
                elapsed + statistics.median(sum(p.times) for p in passes) > budget_s):
            return passes


def setup_probes(ctx, count):
    """`count` processes that import trunclab and run no job."""
    return [run_pass([], ctx) for _ in range(count)]


def job_times(passes, scaled=True):
    """Each job's median time over the passes, at the reference speed.

    On a shared machine the CPU speed changes by up to 1.7x in spells of ten
    to forty seconds, so a whole run can fall in a fast or in a slow spell.
    Scaling each job's time to the reference speed (see Pass.speeds and
    workloads.calibrate) takes most of that out; the median over the passes
    takes out a calibration or a job that a short stall hit.  The README's
    Noise section gives the figures.  `scaled=False` gives the times as
    measured.
    """
    per_pass = [p.scaled_times() if scaled else p.times for p in passes]
    return [statistics.median(times[j] for times in per_pass)
            for j in range(len(passes[0].times))]


def tail_percentile(jobs_per_pass):
    """Highest whole percentile with at least 10 of a pass's commands beyond it."""
    return max(50, math.floor(100 * (1 - 10 / jobs_per_pass)))


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_outputs(workload, seed, jobs, passes):
    """Failures of every job in every pass, hash-seed notes, and the digest.

    A job fails when its own check fails, or when its output differs from
    the first pass run under the same PYTHONHASHSEED (the program is meant
    to be deterministic).  Where pass 1, under the run's other hash seed,
    printed something else than pass 0, the job is noted as hash-seed
    dependent: the report is then not byte-for-byte reproducible from one
    process to the next, as users start it, but no check failed.
    """
    failures, dependent = [], []
    for pi, p in enumerate(passes):
        ref = workloads.hash_class(pi)
        for job, record, problem in zip(jobs, p.records, p.problems):
            if problem is None and record != passes[ref].records[job.index]:
                problem = f"output differs from pass {ref}, run under the same PYTHONHASHSEED"
            if problem is not None:
                failures.append({
                    "workload": workload, "seed": seed, "pass": pi,
                    "case": job.index, "job": f"{job.kind} {job.name}",
                    "job_seed": job.seed, "problem": problem,
                    "replay": _replay(job, workload, seed, pi),
                })
    for job, first, second in zip(jobs, passes[0].records, passes[1].records):
        if first != second:
            dependent.append({"case": job.index, "job": f"{job.kind} {job.name}",
                              "replays": [_replay(job, workload, seed, pi) for pi in (0, 1)]})
    digest = hashlib.sha256("\n".join(passes[0].records).encode("utf-8")).hexdigest()
    return failures, dependent, digest


def _replay(job, workload, seed, pass_index):
    return job.replay(pass_index, workloads.pass_hash_seed(workload, seed, pass_index))


# --- stamp ---------------------------------------------------------------

def git_commit(root):
    """The checkout's commit from .git, without running git; 'unknown' if none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, passes):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# --- profiling ---------------------------------------------------------------

def profile_pass(jobs, top, path):
    """One extra pass in this process under cProfile; CLI commands call cli.main."""
    from trunclab import cli

    profiler = cProfile.Profile()
    sink = io.StringIO()
    profiler.enable()
    try:
        for job in jobs:
            if job.kind == "suite":
                workloads.run_suite(job)
                continue
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with contextlib.suppress(SystemExit):
                    cli.main(list(job.command()))
    finally:
        profiler.disable()
    with open(path, "w", encoding="utf-8") as fh:
        stats = pstats.Stats(profiler, stream=fh)
        stats.sort_stats("tottime").print_stats(top)


# --- the two kinds of run ----------------------------------------------------

def timings(passes, probes, scaled):
    """setup_s, wall_s, cmd_p50_ms and cmd_tail_ms, and the tail percentile."""
    times = job_times(passes, scaled)
    latencies = sorted(1000.0 * t for t in times)
    q = tail_percentile(len(times))
    setups = [p.scaled_setup() if scaled else p.setup for p in probes + passes]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "cmd_p50_ms": statistics.median(latencies),
        "cmd_tail_ms": percentile(latencies, q),
    }, q


def end_to_end(args, jobs, ctx):
    start = time.perf_counter()
    probes = setup_probes(ctx, SETUP_PROBES)
    budget = args.seconds - (time.perf_counter() - start)
    passes = run_passes(jobs, ctx, budget, min_passes=MIN_PASSES)
    metrics, q = timings(passes, probes, scaled=True)
    metrics["peak_rss_mb"] = max(p.rss_mb for p in passes)
    measured, _ = timings(passes, probes, scaled=False)
    calibration = statistics.median(c for p in probes + passes for c in p.calibrations)
    notes = [f"timings are at the reference speed: calibration loop "
             f"{1000 * workloads.REFERENCE_S:.2f} ms; in this run its median was "
             f"{1000 * calibration:.3f} ms",
             "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
             f"cmd_tail_ms is p{q} over {len(jobs)} commands, "
             f"each its median over {len(passes)} passes",
             f"setup_s is the median of {len(probes) + len(passes)} processes: "
             f"{len(probes)} that only import trunclab and the {len(passes)} passes"]
    extra = {"measured": measured, "calibration_median_s": calibration,
             "setup_probes": [[p.setup, p.calibrations[0]] for p in probes]}
    return passes, metrics, notes, extra


def traced(args, jobs, ctx, out_dir):
    """Untraced passes, then traced ones; per-layer metrics of the median pass.

    All per-layer figures come from the one traced pass whose wall time is
    the median, so its layer self times add up to its wall time.  The
    overhead compares median job times, as wall_s does.
    """
    untraced = run_passes(jobs, ctx, UNTRACED_SHARE * args.seconds)
    span_file = out_dir / f"spans-{args.workload}-s{args.seed}.jsonl"
    ctx.spans_file = span_file
    traced_passes = run_passes(jobs, ctx, (1 - UNTRACED_SHARE) * args.seconds, trace=True)
    leftovers = sorted({name for p in traced_passes for name in p.leftovers})
    walls = [sum(p.times) for p in traced_passes]
    median_pass = walls.index(statistics.median_low(walls))
    base_wall = sum(job_times(untraced))
    traced_wall = sum(job_times(traced_passes))
    metrics = dict(traced_passes[median_pass].metrics)
    metrics["trace.wall_s"] = walls[median_pass]
    metrics["trace.overhead"] = traced_wall / base_wall - 1
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    notes = [
        f"tracing overhead {metrics['trace.overhead']:.3f} (traced wall "
        f"{traced_wall:.3f} s / untraced wall {base_wall:.3f} s - 1)",
        f"layer self times sum to {self_sum:.3f} s of {walls[median_pass]:.3f} s traced wall",
        f"spans of the first traced pass in {span_file}",
    ]
    rows = row_verdicts(args.workload, metrics)
    notes += [r["line"] for r in rows]
    extra = {"rows": rows, "leftover_wrappers": leftovers, "spans_file": str(span_file)}
    return untraced + traced_passes, metrics, notes, extra


def row_verdicts(workload, metrics):
    """For each row of the layer table, whether this workload's side held."""
    wall = metrics["trace.wall_s"]
    rows = []
    for label, layers, moves_metric, moves_on, flat_on in ROWS:
        share = max(metrics[f"{layer}.busy_s"] for layer in layers) / wall
        if workload in moves_on:
            role, held = "should move " + moves_metric, share >= MOVES_MIN_SHARE
        elif workload in flat_on:
            role, held = "predicted flat", share <= FLAT_MAX_SHARE
        else:
            role, held = "no prediction", None
        verdict = "n/a" if held is None else ("held" if held else "DID NOT HOLD")
        rows.append({"row": label, "role": role, "busy_share": share, "held": held,
                     "line": f"row [{label}] on {workload}: busy share {share:.1%}, "
                             f"{role}: {verdict}"})
    rows.append({"row": "any cache a later change adds", "role": "peak_rss_mb, setup_s",
                 "busy_share": None, "held": None,
                 "line": f"row [any cache a later change adds] on {workload}: no cache yet: n/a"})
    return rows


def run(args):
    """Run one workload; returns (text lines, final JSON object, result record)."""
    out_dir = Path(args.out).resolve() if args.out else HERE / "out" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    jobs = workloads.build_jobs(args.workload, args.seed, ROOT, out_dir)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as work_dir:
        ctx = Context(args.workload, args.seed, Path(work_dir), env)
        if args.trace:
            passes, metrics, notes, extra = traced(args, jobs, ctx, out_dir)
        else:
            passes, metrics, notes, extra = end_to_end(args, jobs, ctx)
    failures, dependent, digest = check_outputs(args.workload, args.seed, jobs, passes)
    attempted = len(jobs) * len(passes)
    failed = len({(f["pass"], f["case"]) for f in failures})
    leftovers = extra.get("leftover_wrappers", [])
    if args.trace:
        units = tracing.per_layer_units()
    else:
        metrics["ok_frac"] = 1 - failed / attempted
        units = END_TO_END_UNITS
    final = {
        "correct": failed == 0 and not leftovers,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} passes x "
             f"{len(jobs)} jobs, trace {args.trace}, one process per pass",
             f"outputs_sha256 {digest}",
             f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)"]
    lines += [f"FAILED seed {f['seed']} case {f['case']} pass {f['pass']} ({f['job']}, "
              f"job seed {f['job_seed']}): {f['problem']}; replay: {f['replay']}"
              for f in failures]
    lines += [f"LEFTOVER WRAPPER {name}" for name in leftovers]
    lines.append(f"hash-seed dependent outputs: {len(dependent)} of {len(jobs)} jobs")
    lines += [f"HASH-SEED DEPENDENT case {d['case']} ({d['job']}): output of pass 0 "
              f"differs from pass 1; replay: {d['replays'][0]} ; {d['replays'][1]}"
              for d in dependent]
    lines += notes
    if args.profile:
        path = out_dir / f"profile-{args.workload}-s{args.seed}.txt"
        profile_pass(jobs, args.profile, path)
        lines.append(f"cProfile top {args.profile} by self time: {path}")
    record = {"stamp": stamp(args, len(passes)), "outputs_sha256": digest,
              "failures": failures, "hash_seed_dependent": dependent,
              "jobs_per_pass": len(jobs),
              "pass_pids": [p.pid for p in passes], "pass_times": [p.times for p in passes],
              "pass_calibrations": [p.calibrations for p in passes],
              **final, **extra}
    result_file = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    lines.append(f"result file {result_file}")
    return lines, final, record


def main(argv=None):
    package = ROOT / "src" / "trunclab"
    if not (package / "__init__.py").is_file():
        print(f"error: no trunclab package at {package}; run from a checkout "
              "that holds src/trunclab", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import trunclab

    if Path(trunclab.__file__).resolve().parent != package.resolve():
        print(f"error: imported trunclab from {trunclab.__file__}, not {package}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    lines, final, _ = run(args)
    for line in lines:
        print(line)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
