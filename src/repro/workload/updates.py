"""Insert workloads (Section 4.4).

The paper's update experiment inserts batches into ``Neighboring_seq``
("both the widest and the largest relation in the NREF database"); this
module synthesizes fresh, FK-consistent insert batches for it so the
experiment does not recycle existing rows.
"""

import numpy as np

from ..common.rng import make_rng


def nref_neighboring_batch(database, size, seed=77):
    """A batch of new ``neighboring_seq`` rows referencing real proteins."""
    rng = make_rng(seed)
    protein = database.table("protein")
    existing = database.table("neighboring_seq").row_count
    starts = rng.integers(1, 900, size)
    spans = rng.integers(20, 700, size)

    def protein_ids():
        """``size`` random proteins' ids, decoded for those rows only."""
        return protein.decode(
            "nref_id", rng.integers(0, protein.row_count, size)
        )

    return {
        "nref_id_1": protein_ids(),
        "ordinal": np.arange(existing + 1, existing + size + 1),
        "nref_id_2": protein_ids(),
        "taxon_id_2": rng.integers(20, 5000, size) * 7 + 13,
        "length_2": rng.integers(30, 5000, size),
        "score": np.round(rng.uniform(10.0, 2000.0, size), 1),
        "overlap_length": (spans * rng.uniform(0.4, 1.0, size)).astype(
            np.int64
        ),
        "start_1": starts,
        "start_2": rng.integers(1, 900, size),
        "end_1": starts + spans,
        "end_2": rng.integers(900, 1800, size),
    }


def break_even_inserts(insert_rate_slow, insert_rate_fast,
                       workload_gain, repetitions=1):
    """Inserted tuples at which slower-inserts/faster-queries wins.

    The paper's Section 4.4 arithmetic: with 1C inserting at
    ``insert_rate_slow`` s/tuple, R at ``insert_rate_fast``, and 1C
    saving ``workload_gain`` seconds per workload execution, the
    break-even batch for ``repetitions`` executions of the workload is
    ``repetitions * gain / (slow - fast)``.
    """
    delta = insert_rate_slow - insert_rate_fast
    if delta <= 0:
        return float("inf")
    return repetitions * workload_gain / delta
