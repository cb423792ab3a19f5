"""Constant selection for query templates.

Implements the paper's k1/k2/k3 rule (Section 3.2.2, family NREF3J):
for a column, pick a constant ``k1`` with the highest selectivity (lowest
frequency) plus constants ``k2`` and ``k3`` whose frequencies are one and
two orders of magnitude greater, so each template instantiation spans
widely different intermediate-result sizes.
"""

import numpy as np

from ..storage.encoding import ColumnDictionary


def _dictionary(source):
    """``source`` as a :class:`~repro.storage.encoding.ColumnDictionary`:
    the cached one ``Database.column_dictionary`` returns as it is, a
    raw storage array through a fresh one."""
    if isinstance(source, ColumnDictionary):
        return source
    return ColumnDictionary(source)


def selectivity_ladder(source, steps=(1, 10, 100), rank=0):
    """Constants with frequencies ≈ ``f1 * step`` for each step.

    ``rank`` offsets the starting (most selective) value so different
    template instantiations draw different constants.  Returns a list of
    ``(value, frequency)`` pairs, shortest when the column's frequency
    spread cannot support the requested ladder.
    """
    dictionary = _dictionary(source)
    uniques, counts = dictionary.by_frequency()
    if len(uniques) == 0:
        return []
    counts_f64 = dictionary.by_frequency_counts_f64()
    base_idx = min(rank, len(uniques) - 1)
    f1 = counts[base_idx]
    ladder = [(uniques[base_idx], int(f1))]
    for step in steps[1:]:
        target = f1 * step
        if counts[-1] < target / 3:
            break
        idx = int(np.argmin(np.abs(counts_f64 - target)))
        if idx == base_idx:
            continue
        ladder.append((uniques[idx], int(counts[idx])))
    return ladder


def frequency_ladder(source, steps=(1, 10, 100)):
    """Frequency constants ``p`` for ``HAVING COUNT(*) = p`` templates.

    Picks frequencies that actually occur in the column such that the
    total number of rows selected by "values occurring exactly p times"
    spans the requested orders of magnitude.
    """
    dictionary = _dictionary(source)
    if dictionary.n_distinct == 0:
        return []
    freq_vals, freq_of_freq = dictionary.frequency_histogram()
    rows_selected = freq_vals * freq_of_freq
    order = np.argsort(rows_selected, kind="stable")
    base = rows_selected[order[0]]
    ladder = [int(freq_vals[order[0]])]
    for step in steps[1:]:
        target = base * step
        idx = int(np.argmin(np.abs(rows_selected - target)))
        p = int(freq_vals[idx])
        if p not in ladder:
            ladder.append(p)
    return ladder


def sql_literal(value):
    """Render a Python value as a SQL literal."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
