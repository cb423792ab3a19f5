"""Per-column statistics.

Collected statistics carry most-common-value lists and an exact
*frequency profile* (cumulative fraction of rows whose value occurs at
most ``f`` times), which the estimator uses for the benchmark's
``HAVING COUNT(*) < p`` semijoin predicates.  Hypothetical (what-if)
estimation is restricted to the coarse fields — ``row_count``,
``n_distinct`` — reproducing the fidelity gap between estimates taken in a
real configuration and hypothetical estimates that Section 5 of the paper
measures (Figure 10).
"""

from dataclasses import dataclass, field

import numpy as np

from ..storage.encoding import ColumnDictionary

MCV_LIST_SIZE = 20


@dataclass
class ColumnStats:
    """Statistics of one column."""

    column: str
    row_count: int
    n_distinct: int
    mcv_values: list = field(default_factory=list)
    mcv_fractions: list = field(default_factory=list)
    freq_values: np.ndarray = None        # sorted unique value-frequencies
    freq_row_cumfrac: np.ndarray = None   # P[row's value freq <= freq_values[i]]
    vmin: object = None                   # smallest column value (None if empty)
    vmax: object = None                   # largest column value (None if empty)

    @classmethod
    def collect(cls, column_name, values, dictionary=None):
        """Compute full statistics over a storage array.

        The distinct values, counts and frequency histogram are read
        off the column's :class:`~repro.storage.encoding.ColumnDictionary`:
        the cached ``dictionary`` when it was built from this exact
        array, a fresh one otherwise.
        """
        values = np.asarray(values)
        row_count = len(values)
        if row_count == 0:
            return cls._empty(column_name)
        if dictionary is None or dictionary.base is not values:
            dictionary = ColumnDictionary(values)
        return cls._from_value_counts(
            column_name, dictionary.values, dictionary.counts, row_count,
            dictionary.frequency_histogram(),
        )

    @classmethod
    def _empty(cls, column_name):
        return cls(column_name, 0, 0,
                   freq_values=np.array([], dtype=np.int64),
                   freq_row_cumfrac=np.array([], dtype=np.float64))

    @classmethod
    def _from_value_counts(cls, column_name, uniques, counts, row_count,
                           histogram):
        """Every field from the column's value/count pair and the
        frequency-of-frequency ``histogram`` of the counts."""
        freq_values, freq_of_freq = histogram
        n_distinct = len(uniques)

        top = np.argsort(counts)[::-1][:MCV_LIST_SIZE]
        mcv_values = [uniques[i] for i in top]
        mcv_fractions = [counts[i] / row_count for i in top]

        rows_at_freq = freq_values * freq_of_freq
        freq_row_cumfrac = np.cumsum(rows_at_freq) / row_count

        return cls(
            column=column_name,
            row_count=row_count,
            n_distinct=n_distinct,
            mcv_values=mcv_values,
            mcv_fractions=mcv_fractions,
            freq_values=freq_values.astype(np.int64),
            freq_row_cumfrac=freq_row_cumfrac,
            vmin=uniques[0],
            vmax=uniques[-1],
        )

    # ------------------------------------------------------------------
    # Selectivity primitives

    def eq_selectivity(self, value, use_mcvs=True):
        """Fraction of rows equal to ``value``.

        With ``use_mcvs=False`` (hypothetical mode) the uniform 1/ndv
        assumption is applied regardless of the value.
        """
        if self.row_count == 0:
            return 0.0
        if use_mcvs and self.mcv_values:
            for mcv, frac in zip(self.mcv_values, self.mcv_fractions):
                if mcv == value:
                    return float(frac)
            remaining = max(0.0, 1.0 - sum(self.mcv_fractions))
            remaining_distinct = max(1, self.n_distinct - len(self.mcv_values))
            return remaining / remaining_distinct
        return 1.0 / max(1, self.n_distinct)

    def frequency_selectivity(self, op, threshold):
        """Fraction of rows whose value-frequency satisfies ``freq op threshold``.

        This is the row-level selectivity of the benchmark's
        ``col IN (SELECT col FROM t GROUP BY col HAVING COUNT(*) op k)``
        pattern when the subquery ranges over the same table and column.
        """
        if self.row_count == 0 or self.freq_values is None \
                or len(self.freq_values) == 0:
            return 0.0
        le = self._cumfrac_le(threshold)
        lt = self._cumfrac_le(threshold - 1)
        if op == "<":
            return lt
        if op == "<=":
            return le
        if op == "=":
            return max(0.0, le - lt)
        if op == ">":
            return max(0.0, 1.0 - le)
        if op == ">=":
            return max(0.0, 1.0 - lt)
        if op == "<>":
            return max(0.0, 1.0 - (le - lt))
        raise ValueError(f"unsupported frequency operator {op!r}")

    def distinct_count_with_frequency(self, op, threshold):
        """Number of distinct values whose frequency satisfies the predicate."""
        if self.freq_values is None or len(self.freq_values) == 0:
            return 0
        sel = self.frequency_selectivity(op, threshold)
        # Rough conversion from row fraction back to a distinct count: the
        # qualifying values have average frequency <= threshold.
        avg = max(1.0, self.row_count / max(1, self.n_distinct))
        bound = threshold if op in ("<", "<=", "=") else avg
        per_value = max(1.0, min(avg, bound))
        return int(round(sel * self.row_count / per_value))

    def _cumfrac_le(self, threshold):
        if threshold < int(self.freq_values[0]):
            return 0.0
        idx = np.searchsorted(self.freq_values, threshold, side="right") - 1
        return float(self.freq_row_cumfrac[idx])
