"""Check every query of the five families against SQLite under P, 1C and R.

Usage::

    PYTHONPATH=src python scripts/sqlite_oracle.py

``tests/test_plan_shape.py`` compares each family's sampled workload
with the SQLite oracle at scale 0.05; this runs the same check, its
``check_family``, over every query of the full families at scale 0.02,
for the seven (system, family) pairs the paper measures.  Each pair
prints its comparisons per configuration, the queries that timed out
under every configuration, how many runs repeated a plan fingerprint
(each with the seconds and rows of its first run, which ``check_family``
asserts), and its seconds.  The exit status is 1 when a pair returns
other rows than SQLite, runs one fingerprint to two outcomes, repeats
none, or compares nothing under a configuration it built; else 0.
"""

import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_plan_shape  # noqa: E402
from repro.bench.context import BenchContext, BenchSettings  # noqa: E402

SCALE = 0.02
WORKLOAD_SIZE = 30


def main():
    started = time.monotonic()
    context = BenchContext(
        BenchSettings(scale=SCALE, workload_size=WORKLOAD_SIZE, jobs=1)
    )
    failed = 0
    for system, family in test_plan_shape.FAMILIES:
        pair_started = time.monotonic()
        queries = list(context.full_family(system, family))
        try:
            compared, timed_out, repeated = test_plan_shape.check_family(
                context, system, family, queries
            )
        except AssertionError:
            failed += 1
            print(f"{system} {family}: MISMATCH")
            traceback.print_exc(limit=1)
            continue
        if not all(compared.values()):
            failed += 1
        counts = ", ".join(f"{name} {n}" for name, n in compared.items())
        print(f"{system} {family}: {len(queries)} queries; compared "
              f"{counts}; {timed_out} timed out under every configuration; "
              f"{repeated} runs repeated a plan fingerprint with equal "
              f"seconds and rows; "
              f"{time.monotonic() - pair_started:.1f} s", flush=True)
    print(f"{len(test_plan_shape.FAMILIES) - failed}/"
          f"{len(test_plan_shape.FAMILIES)} pair(s) agree with SQLite; "
          f"wall time {time.monotonic() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
