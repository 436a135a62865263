"""Compare two result sets of the trunclab benchmark: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--trace 0|1]

Each directory holds the result files `perfbench/run.py --out DIR` wrote,
one per workload, seed and trace setting; runs are paired by workload and
seed.  For each workload and metric this prints each side's median and
quartiles, the fraction of pairs the change wins (ties count for neither)
and a verdict:

  better      the change wins at least 9 of 10 pairs, and the medians differ
              by more than the distance between the parent's quartiles
  worse       the same the other way round, or the change's median is worse
              than the parent's by more than the metric's bound
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run
  unchanged   otherwise

Bounds and directions come from BENCHMARK.json; per-layer metrics have no
bound, so only the pair rule applies to them.  It also says whether the
two sides' `outputs_sha256` agree seed by seed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory, trace):
    """{(workload, seed): result record} for one trace setting."""
    out = {}
    for path in sorted(Path(directory).glob(f"*-t{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        st = record["stamp"]
        out[(st["workload"], st["seed"])] = record
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, lower_is_better, bound):
    """(verdict, share of pairs the change wins) for paired value lists."""
    sign = 1 if lower_is_better else -1
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains) / len(gains)
    losses = sum(g < 0 for g in gains) / len(gains)
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    gap = abs(cmed - pmed)
    spread = p3 - p1
    gain = sign * (pmed - cmed)
    if wins >= WIN_SHARE and gap > spread and gain > 0:
        return "better", wins
    if losses >= WIN_SHARE and gap > spread and gain < 0:
        return "worse", wins
    if bound is None:
        return "unchanged", wins
    if pmed and spread / abs(pmed) > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "unchanged", wins
        return "unresolved", wins
    if pmed and -gain / abs(pmed) > bound:
        return "worse", wins
    return "unchanged", wins


def compare(parent_dir, change_dir, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_dir, trace), load(change_dir, trace)
    keys = sorted(set(parent) & set(change))
    lines = []
    if not keys:
        return [f"no paired results with trace {trace}"]
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        same = sum(parent[(workload, s)]["outputs_sha256"] == change[(workload, s)]["outputs_sha256"]
                   for s in seeds)
        lines.append(f"== {workload}: {len(seeds)} paired seeds; outputs_sha256 identical "
                     f"on {same} of {len(seeds)}")
        names = parent[(workload, seeds[0])]["metrics"]
        for name in names:
            m = metric_specs.get(name, {"better": "lower", "unit": ""})
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            word, wins = verdict(pv, cv, m["better"] == "lower", m.get("bound"))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            bound = f"bound {m['bound']:.0%}" if "bound" in m else "no bound"
            lines.append(f"  {name:34s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                         f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  "
                         f"wins {wins:.0%}  {bound}  -> {word}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for line in compare(args.parent, args.change, args.trace):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
