"""Cardinality estimation.

The estimator is deliberately faithful to the mid-2000s commercial
estimators the paper studied: attribute-value independence across
predicates, the containment assumption for equality joins, damped
distinct-product estimates for GROUP BY.  These assumptions are the
mechanism behind the paper's observations — join estimates degrade under
skew (Section 4.3) and hypothetical estimates degrade further
(Section 5.1).
"""


class Estimator:
    """Cardinality/selectivity estimates over a statistics catalog."""

    def __init__(self, stats_catalog, policy):
        self._stats = stats_catalog
        self.policy = policy

    # ------------------------------------------------------------------
    # Base tables

    def table_rows(self, table):
        return self._stats.table(table).row_count

    def table_pages(self, table):
        return self._stats.table(table).page_count

    def column(self, table, column):
        return self._stats.table(table).column(column)

    def n_distinct(self, table, column):
        return max(1, self.column(table, column).n_distinct)

    # ------------------------------------------------------------------
    # Selectivities

    def filter_selectivity(self, table, flt):
        """Selectivity of ``col op literal`` on a base table."""
        stats = self.column(table, flt.target.column)
        if flt.op == "=":
            return stats.eq_selectivity(flt.value, self.policy.use_mcvs)
        if flt.op == "<>":
            eq = stats.eq_selectivity(flt.value, self.policy.use_mcvs)
            return max(0.0, 1.0 - eq)
        # Range predicates: without histogram support pretend a third
        # qualifies, the classic System-R default.
        return 1.0 / 3.0

    def semijoin_selectivity(self, table, semi):
        """Selectivity of the benchmark's frequency-based IN-subquery."""
        if not self.policy.use_frequency_profile:
            return self.policy.default_semijoin_selectivity
        if semi.sub_table == table and semi.sub_column == semi.target.column:
            stats = self.column(table, semi.target.column)
            return stats.frequency_selectivity(
                semi.having_op, semi.having_value
            )
        # Cross-table membership: fraction of the target's distinct values
        # produced by the subquery, under containment.
        sub_stats = self.column(semi.sub_table, semi.sub_column)
        qualifying = sub_stats.distinct_count_with_frequency(
            semi.having_op, semi.having_value
        )
        target_ndv = self.n_distinct(table, semi.target.column)
        return min(1.0, qualifying / max(1, target_ndv))

    def semijoin_allowed_values(self, semi):
        """Estimated size of the subquery result (the allowed-value set)."""
        stats = self.column(semi.sub_table, semi.sub_column)
        if not self.policy.use_frequency_profile:
            return max(
                1,
                int(stats.n_distinct * self.policy.default_semijoin_selectivity),
            )
        return max(
            1,
            stats.distinct_count_with_frequency(
                semi.having_op, semi.having_value
            ),
        )

    def join_selectivity(self, left_table, left_col, right_table, right_col):
        """Equality join selectivity under the containment assumption."""
        left_ndv = self.n_distinct(left_table, left_col)
        right_ndv = self.n_distinct(right_table, right_col)
        return 1.0 / max(left_ndv, right_ndv)

    def join_rows(self, left_rows, right_rows, selectivity):
        """Estimated join output size."""
        return max(1.0, left_rows * right_rows * selectivity)

    def group_count(self, input_rows, ndv_list):
        """Estimated number of groups for a GROUP BY.

        Product of per-column distinct counts, damped and capped by the
        input size — the standard commercial heuristic.
        """
        if not ndv_list:
            return 1.0
        product = 1.0
        for ndv in ndv_list:
            product *= max(1, ndv)
            if product > 1e18:
                break
        damped = product ** self.policy.groupby_damping
        return max(1.0, min(damped, input_rows))

    def scaled_ndv(self, table, column, selected_rows):
        """Distinct values surviving a selection of ``selected_rows`` rows."""
        total = self.table_rows(table)
        ndv = self.n_distinct(table, column)
        if total <= 0:
            return 1
        frac = min(1.0, selected_rows / total)
        # Distinct-value survival under random selection.
        survived = ndv * (1.0 - (1.0 - frac) ** max(1.0, total / ndv))
        return max(1.0, survived)
