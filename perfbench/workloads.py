"""The benchmark's workloads: job lists built from a seed, and output checks.

Every workload is a closed loop with one client: a job starts only when the
previous one has finished.  Three workloads are in-process suite calls and
together hold exactly the 16 suites of `trunclab suite`; the fourth runs the
CLI, one process per command, on a generated instance file.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# (suite, cases per call, calls per pass).  A pass takes 1-5 s on a 2-CPU
# machine, so a run holds several passes to take each call's median over.
# The command-latency percentiles are taken over the calls of one pass, so
# each mix has one large group of similar calls that both the median and
# the tail fall inside, away from the edges between groups: the ex1 battery,
# the oracle and cut-case calls, and six suites of 0.1 s calls.  `kernels`,
# `degree2-refutation` and `equivalences` do fixed work whatever the cases.
SUITE_MIXES = {
    "seq-battery": (
        ("ex1-battery", 40, 16),
        ("degree2-refutation", 1, 4),
        ("kernels", 40, 1),
        ("seq-closure", 20, 6),
    ),
    "frame-oracle": (
        ("induced-oracle", 8, 18),
        ("cut-cases", 35, 6),
        ("drop-e0q", 8, 6),
    ),
    "boolean-sweep": (
        ("trunc-axioms", 80, 3),
        ("identities", 40, 3),
        ("good-sequences", 150, 3),
        ("idealization", 1, 3),
        ("equivalences", 5, 3),
        ("normal-clearance", 140, 3),
        ("dini", 30, 3),
        ("convergence", 22, 3),
        ("boolean", 1, 3),
    ),
}

WORKLOADS = ("seq-battery", "frame-oracle", "boolean-sweep", "cli-session")

CLI_TIMEOUT_S = 150


@dataclass(frozen=True)
class Job:
    """One unit of work: a suite call, or one CLI command in its own process."""

    index: int
    kind: str      # "suite" or "cli"
    name: str      # suite name, or CLI command
    seed: int
    cases: int = 0
    argv: tuple = ()   # CLI arguments, without the instance file
    file: str = ""     # instance file the CLI command reads, if any

    @classmethod
    def from_dict(cls, d):
        return cls(**dict(d, argv=tuple(d["argv"])))

    def command(self):
        """The full CLI argument list, instance file included."""
        return self.argv + (("--file", self.file) if self.file else ())

    def hash_seed(self, pass_index):
        """PYTHONHASHSEED of this CLI job's process in the given pass.

        The hash seed orders sets and so can change what the program does
        and prints.  It is drawn from the job and the pass's hash class
        (see hash_class), so a seed's runs are reproducible.
        """
        return random.Random(
            f"{self.seed}/{self.index}/{hash_class(pass_index)}").randrange(2**32)

    def replay(self, pass_index, pass_seed):
        """The command that repeats this job, as run in the given pass.

        `pass_seed` is the PYTHONHASHSEED of that pass's process, in which
        a suite call runs.
        """
        if self.kind == "suite":
            return (f"PYTHONHASHSEED={pass_seed} PYTHONPATH=src python3 -m trunclab.cli "
                    f"suite {self.name} --seed {self.seed} --cases {self.cases} --json")
        return (f"PYTHONHASHSEED={self.hash_seed(pass_index)} PYTHONPATH=src "
                "python3 -m trunclab.cli " + " ".join(self.command()))


def hash_class(pass_index):
    """Which of a run's two PYTHONHASHSEEDs a pass's processes get.

    Even passes get one and odd passes the other, so every job's output is
    compared both with a run under the same hash seed (they must be
    identical) and with one under another hash seed (a difference is
    reported as hash-seed dependence).
    """
    return pass_index % 2


def pass_hash_seed(workload, seed, pass_index):
    """PYTHONHASHSEED of a pass process, drawn from the run's seed and hash class."""
    return random.Random(f"{workload}/{seed}/{hash_class(pass_index)}").randrange(2**32)


def _space_points(seed):
    from trunclab.sampling import random_space

    return len(random_space(random.Random(seed), max_points=3).nonstar)


def _algebra_size(seed):
    from trunclab.sampling import random_gba

    return len(random_gba(random.Random(seed)))


# Suites whose first random draw sets most of a call's cost: (what the draw
# gives for a seed, the values job after job cycles through).  Their seeds
# are drawn until the draw gives the wanted value, so the size of the work
# does not vary with the workload seed while its contents do.  A `kernels`
# call costs 2.6 s on a 1-point space and 3.3 s on a 3-point one; one call
# of `idealization` or `boolean` on a 16-element algebra costs as much as a
# dozen on 4 elements.
PINNED = {
    "kernels": (_space_points, (2,)),
    "idealization": (_algebra_size, (4, 8, 16)),
    "boolean": (_algebra_size, (4, 8, 16)),
}


def _job_seed(rng, suite, nth):
    if suite not in PINNED:
        return rng.randrange(2**31)
    draw, cycle = PINNED[suite]
    while True:
        seed = rng.randrange(2**31)
        if draw(seed) == cycle[nth % len(cycle)]:
            return seed


def suite_jobs(workload, seed):
    """The fixed job list of a suite workload, calls of one suite interleaved."""
    rng = random.Random(f"{workload}/{seed}")
    mix = SUITE_MIXES[workload]
    jobs = []
    for rnd in range(max(count for _, _, count in mix)):
        for suite, cases, count in mix:
            if rnd < count:
                jobs.append(Job(len(jobs), "suite", suite, _job_seed(rng, suite, rnd), cases))
    return jobs


# --- cli-session -------------------------------------------------------------

def _rat(rng, lo=1, hi=9, dens=(1, 2, 3, 4)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _partition(rng, items, sizes):
    """A random partition of items into blocks of the given sizes, in order."""
    items = rng.sample(items, len(items))
    blocks = []
    for size in sizes:
        blocks.append(sorted(items[:size]))
        items = items[size:]
    return blocks


def _unions(blocks):
    fam = [[]]
    for block in blocks:
        fam += [s + block for s in fam]
    return sorted(fam, key=lambda s: (len(s), s))


def _braces(family):
    return " ".join("{ " + " ".join(s) + " }" if s else "{ }" for s in family)


def instance_text(seed):
    """An instance file holding every object kind; values vary with the seed.

    Sizes are fixed (a space of 4 points besides the base point, 4-element
    frames, a trunc of 8 components, a 4-element gBa, a kernel support of 2
    labels), so the work per command does not vary much from seed to seed:
    with blocks of random sizes, parsing the file took 186-262 ms.
    """
    rng = random.Random(f"cli-session/instance/{seed}")
    pts = ["1", "2", "3", "4"]
    lines = ["# generated by perfbench from its seed",
             "space X points * 1 2 3 4 star *"]
    for name in ("g1", "g2", "g3", "g4"):
        vals = " ".join(f"{p}={_fmt(_rat(rng))}" for p in pts)
        lines.append(f"element {name} space X values {vals}")
    base = {p: _rat(rng, 1, 8, (1, 2, 4)) for p in pts}
    for name, factor in (("f1", 1), ("f2", Fraction(1, 2)), ("f4", Fraction(1, 4))):
        vals = " ".join(f"{p}={_fmt(v * factor)}" for p, v in base.items())
        lines.append(f"element {name} space X values {vals}")
    lines.append("element f3 space X values")
    heights = {p: _rat(rng, 1, 11, (4,)) for p in pts}      # in (0, 3]
    for n in (1, 2, 3):
        vals = " ".join(f"{p}={_fmt(min(max(h - (n - 1), 0), 1))}"
                        for p, h in heights.items() if h > n - 1)
        lines.append(f"element h{n} space X values {vals}".rstrip())
    blocks = _partition(rng, pts, (2, 1, 1))
    lines.append(f"trunc T space X components {_braces(_unions(blocks))}")
    gblocks = _partition(rng, ["1", "2", "3"], (2, 1))
    lines.append(f"gba A family {_braces(_unions(gblocks))}")
    lines.append("gba P elements o x y t covers o<x o<y x<t y<t")
    lines.append("iba B idealize A")
    lines.append(f"iba D atoms p q r ideal-omits {rng.choice('pqr')}")
    lines.append("frame F4 elements bot a b top covers bot<a bot<b a<top b<top point a")
    lines.append(f"framereal u1 frame F4 cells {_fmt(_rat(rng))}=b 0=a")
    lines.append(f"framereal u2 frame F4 cells {_fmt(_rat(rng))}=b 0=a")
    lines.append("frame C3 elements bot m top covers bot<m m<top point m")
    lines.append("frame TWO elements bot top covers bot<top point top")
    lines.append("surjection q source C3 target TWO map bot=bot m=top top=top")
    lines.append("framereal hz frame C3 dtype cells 0=top")
    lines.append("framereal w2 frame TWO cells 0=top")
    lines.append("seqtrunc S1 degree 1")
    lines.append("seqtrunc S2 degree 2")
    lines.append(f"tailel t1 trunc S1 tail {_fmt(_rat(rng))} correction "
                 f"{rng.randint(1, 3)}={_fmt(_rat(rng))} {rng.randint(4, 7)}={_fmt(_rat(rng))}")
    lines.append(f"tailel t2 trunc S2 tail {_fmt(_rat(rng))} {_fmt(_rat(rng))} correction "
                 f"{rng.randint(1, 5)}={_fmt(_rat(rng))}")
    lines.append("kernel K model S1 support all tails 0")
    lines.append(f"kernel K2 model T support {' '.join(blocks[0])}")
    lines.append("kernel K3 model S2 support all tails 01")
    lines.append("sequence s elements f1 f2 f3 f3 stable")
    lines.append("sequence s2 elements f1 f2 f4 f3 stable")
    lines.append("goodseq fs elements h1 h2 h3")
    return "\n".join(lines) + "\n"


# The fixed command mix: every one of the 16 commands, three of them twice
# on other objects, 19 in all.  A pass takes 7-9 s on a 2-CPU machine, so
# that a 30-s run holds the four passes each command's median time is
# taken over.  (argv without --file, --seed and --json; whether the command
# reads the instance file)
CLI_MIX = (
    (("check",), True),
    (("normal-form", "g1", "g2"), True),
    (("good-seq", "g1", "fs"), True),
    (("trunc-seq", "g2", "s"), True),
    (("uc", "T", "u1"), True),
    (("frame-eval", "u1", "(-inf,1/2)"), True),
    (("induced-op", "add", "u1", "u2"), True),
    (("induced-op", "meet", "t1", "t2"), True),
    (("drop", "q", "hz"), True),
    (("e0q", "q", "w2"), True),
    (("kernel-check", "K3", "--cases", "60"), True),
    (("kernel-close", "K2"), True),
    (("pointwise", "K2", "--cases", "60"), True),
    (("pointwise", "g1", "g2"), True),
    (("dini", "s"), True),
    (("suite", "trunc-axioms", "--cases", "40"), False),
    (("equivalence", "X"), True),
    (("ex1-report", "--cases", "20"), False),
    (("check", "g3", "A", "P", "B", "D", "K3"), True),
)


def instance_path(out_dir, seed):
    return Path(out_dir) / f"cli-session-s{seed}.tl"


def cli_jobs(seed, instance_file):
    """The fixed command list of cli-session; each command gets its own seed."""
    rng = random.Random(f"cli-session/{seed}")
    jobs = []
    for argv, needs_file in CLI_MIX:
        job_seed = rng.randrange(2**16)
        jobs.append(Job(len(jobs), "cli", argv[0], job_seed,
                        argv=(*argv, "--seed", str(job_seed), "--json"),
                        file=str(instance_file) if needs_file else ""))
    return jobs


def build_jobs(workload, seed, root, out_dir):
    """Job list for one run; cli-session also writes its instance file."""
    if workload in SUITE_MIXES:
        return suite_jobs(workload, seed)
    path = instance_path(out_dir, seed)
    # Written whole under another name first: runs of the same seed at once
    # must never read a half-written file.
    partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
    partial.write_text(instance_text(seed), encoding="utf-8")
    os.replace(partial, path)
    return cli_jobs(seed, os.path.relpath(path, root))


# --- machine speed ------------------------------------------------------------

# What calibrate() takes at the speed timings are reported at.  On the
# shared 2-CPU machine the bounds were set on, the median of a 30-s run
# ranged from 1.9 to 3.7 ms.
REFERENCE_S = 0.003


def calibrate():
    """Seconds a fixed pure-Python loop takes now.

    On a shared machine the speed of the CPU this process gets changes by up
    to 1.7x in spells of ten to forty seconds, longer than a job and often
    than a run.  A job's time times REFERENCE_S / calibrate(), measured on
    either side of the job, is its time at the reference speed.  The loop
    uses no trunclab code and no Fraction, so no change to the program and
    no tracing wrapper alters it.
    """
    start = time.perf_counter()
    seen = {}
    for i in range(1, 8000):
        a, b = i * 7919 % 1009 + 1, i % 97 + 1
        while b:
            a, b = b, a % b
        seen[i % 64] = a
    return time.perf_counter() - start


# --- execution and checks ----------------------------------------------------

def run_suite(job):
    """Run a suite call in-process; returns (output record, problem or None)."""
    from trunclab import suites

    res = suites.SUITES[job.name](seed=job.seed, cases=job.cases)
    record = json.dumps([job.name, job.seed, job.cases, res.cases, res.passed,
                         res.failures])
    problem = None
    if not res.passed:
        problem = (f"suite reported {len(res.failures)} failure(s); first: "
                   f"{res.failures[0]}")
    return record, problem


def cli_problem(returncode, stdout, stderr):
    """Why a CLI run counts as failed, or None if its output is sound."""
    if returncode == 2:
        first = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code 2 (input error): {first[0]}"
    if "Traceback (most recent call last)" in stderr + stdout:
        return "traceback: " + (stderr.strip().splitlines() or [""])[-1]
    if returncode not in (0, 1):
        return f"exit code {returncode}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not valid JSON"
    if not isinstance(payload, dict) or payload.get("ok") is not (returncode == 0):
        return f"ok flag disagrees with exit code {returncode}"
    return None


def run_cli(job, pass_index, root, env, child=None):
    """Run one CLI command in its own process.

    `child` is the traced-run prefix (the tracing shim and its summary file)
    that replaces `-m trunclab.cli`.  Returns (output record, problem or None).
    """
    prefix = child or ["-m", "trunclab.cli"]
    env = dict(env, PYTHONHASHSEED=str(job.hash_seed(pass_index)))
    try:
        proc = subprocess.run([sys.executable, *prefix, *job.command()], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return json.dumps([list(job.argv), "timeout"]), f"timed out after {CLI_TIMEOUT_S} s"
    record = json.dumps([list(job.argv), proc.returncode, proc.stdout])
    return record, cli_problem(proc.returncode, proc.stdout, proc.stderr)
