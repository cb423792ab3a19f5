#!/usr/bin/env python3
"""Compare two result documents of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the change.  For every workload and bounded metric it prints
both medians with their quartiles, the ratio B/A, and a verdict:

* ``regressed``  — B's median is worse than A's by more than the
  metric's bound;
* ``unresolved`` — the spread of either side (quartile distance over
  median) is wider than the bound and the two sides' runs overlap, so
  the runs cannot tell; run more repeats, do not widen the bound;
* ``ok``         — otherwise.

Differences in output fingerprints or in the program's exact counters
are listed.  The exit code is 1 if any metric regressed, else 0.
"""

import json
import sys

import metrics


def worse_by(better, base, change):
    """Share of ``base`` by which ``change`` is worse (negative when it
    is better)."""
    delta = (change - base) / base
    return delta if better == "lower" else -delta


def verdict(better, bound, a, b):
    """``a``/``b``: the metric's values on each side, one per run."""
    sa, sb = metrics.summary(a), metrics.summary(b)
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
    apart = max(b) < min(a) or min(b) > max(a)
    if spread > bound and not apart:
        return "unresolved"
    if worse_by(better, sa["median"], sb["median"]) > bound:
        return "regressed"
    return "ok"


def exact(document, workload):
    """The fingerprints and exact counters of a workload's first run."""
    for run in document["runs"]:
        if run["workload"] == workload:
            return {**{f"fingerprint {k}": v
                       for k, v in run["fingerprints"].items()},
                    **{f"count {k}": v for k, v in run["counts"].items()}}
    return {}


def compare(base, change, benchmark, out=sys.stdout):
    """Print the comparison; returns the number of regressed metrics."""
    regressed = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        rows = []
        bounded = metrics.bounded_metrics(benchmark, workload)
        for metric, (unit, better, bound) in bounded.items():
            a = metrics.values(base["runs"], workload, metric)
            b = metrics.values(change["runs"], workload, metric)
            if not a or not b:
                continue
            sa, sb = metrics.summary(a), metrics.summary(b)
            result = verdict(better, bound, a, b)
            regressed += result == "regressed"
            rows.append(
                f"  {metric:<20} A {sa['median']:10.4f} "
                f"[{sa['q1']:.4f}, {sa['q3']:.4f}] n={sa['n']}   "
                f"B {sb['median']:10.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}] "
                f"n={sb['n']} {unit:<6} B/A {sb['median'] / sa['median']:.3f}"
                f" (base A)  bound {bound:.2f}  {result}"
            )
        if not rows:
            continue
        print(workload, file=out)
        print("\n".join(rows), file=out)
        ea, eb = exact(base, workload), exact(change, workload)
        for key in sorted(set(ea) | set(eb)):
            if ea.get(key) != eb.get(key):
                print(f"  DIFFERS {key}: A {ea.get(key)}  B {eb.get(key)}",
                      file=out)
    return regressed


def main(argv=None):
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    regressed = compare(*documents, metrics.load_benchmark())
    print(f"{regressed} metric(s) regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
