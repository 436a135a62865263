"""Run one pass of a benchmark workload in a fresh process.

    python3 perfbench/pass_child.py PASS.json RESULT.json

`run.py` starts one of these for every pass, so that nothing one pass leaves
in a process, such as a cache keyed on input values, carries over to the
next: each pass sees what one `trunclab suite` run or one CLI session sees.

PASS.json holds the job list, the pass index, whether to trace, and where to
write the traced CLI summary and the spans.  The process imports trunclab
first and reads the clock, so that the parent can time set-up.  Then it runs
the jobs one at a time, with workloads.calibrate() before the first and after
each, and writes RESULT.json: that clock, each job's time, output record and
problem, the calibrations, its peak resident memory and that of its largest
child, and, when traced, the per-layer metrics and any wrapper left behind.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import trunclab  # noqa: E402,F401  (set-up ends once this import has)

READY = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"


@dataclass
class Context:
    pass_index: int
    summary_file: Path
    tracer: object = None
    runners: dict = field(default_factory=dict)


def _job_body(job, ctx):
    if job.kind == "suite":
        return workloads.run_suite(job)
    env = dict(os.environ)
    if ctx.tracer is None:
        return workloads.run_cli(job, ctx.pass_index, ROOT, env)
    ctx.summary_file.unlink(missing_ok=True)
    out = workloads.run_cli(job, ctx.pass_index, ROOT, env,
                            [str(TRACE_CHILD), str(ctx.summary_file)])
    if ctx.summary_file.is_file():
        ctx.tracer.add_child(json.loads(ctx.summary_file.read_text(encoding="utf-8")))
    return out


def execute(job, ctx):
    """Run one job; returns (seconds, output record, problem or None)."""
    body = _job_body
    if ctx.tracer is not None:
        name = f"runner.{job.kind}:{job.name}"
        if name not in ctx.runners:
            ctx.runners[name] = ctx.tracer.span(_job_body, name, tracing.RUNNER)
        body = ctx.runners[name]
    start = time.perf_counter()
    try:
        record, problem = body(job, ctx)
    except Exception as exc:  # noqa: BLE001 - a crashing job is a failed job
        record = json.dumps([job.index, "exception", repr(exc)])
        problem = "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()
    return time.perf_counter() - start, record, problem


def max_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0    # Linux reports KiB


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    jobs = [workloads.Job.from_dict(d) for d in spec["jobs"]]
    ctx = Context(spec["pass_index"], Path(spec["summary_file"]))
    installation = None
    if spec["trace"]:
        ctx.tracer = tracing.Tracer()
        installation = tracing.Installation(ctx.tracer).install()
        ctx.tracer.active = True
    times, records, problems = [], [], []
    # The median of three, as set-up time is scaled by this one alone.
    calibrations = [sorted(workloads.calibrate() for _ in range(3))[1]]
    try:
        for job in jobs:
            seconds, record, problem = execute(job, ctx)
            times.append(seconds)
            records.append(record)
            problems.append(problem)
            calibrations.append(workloads.calibrate())
    finally:
        if installation is not None:
            installation.uninstall()
    result = {
        "pid": os.getpid(), "ready": READY,
        "times": times, "records": records, "problems": problems,
        "calibrations": calibrations,
        "rss_self_mb": max_rss_mb(resource.RUSAGE_SELF),
        "rss_children_mb": max_rss_mb(resource.RUSAGE_CHILDREN),
    }
    if ctx.tracer is not None:
        result["metrics"] = ctx.tracer.metrics()
        result["leftover_wrappers"] = tracing.leftover_wrappers()
        if spec["spans_file"]:
            ctx.tracer.write_spans(spec["spans_file"])
            result["spans"] = [len(ctx.tracer.spans), ctx.tracer.dropped]
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
