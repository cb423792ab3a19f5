"""The mutation table: defects, each paired with the check that catches it.

A row is one defect, written as an exact text replacement: ``file``
(relative to the repository root), ``search`` (text that occurs there
exactly once) and ``replace``.  ``catcher`` names the one check that
must catch it — a tier-1 test node id, or ``ci: <step name>`` for a
step of ``.github/workflows/ci.yml``.  ``guards`` says what the row
stands for: the part of the program the defect is in.

``python scripts/mutants.py`` applies every row to a copy of the
repository and requires its catcher to pass before the replacement and
fail after it; ``tests/test_mutants.py`` checks on every tier-1 run
that each row still applies.  The table and what each row showed are
in ``docs/static-analysis.md``.
"""

ROWS = [
    # -- invalidation: every Database mutator drops the derived caches
    dict(
        id="load-table-keeps-caches",
        guards="invalidation",
        file="src/repro/engine/database.py",
        search=(
            "        self._view_size_cache.clear()\n"
            "        self.invalidate_caches()\n"
            "\n"
            "    def table(self, name):\n"
        ),
        replace=(
            "        self._view_size_cache.clear()\n"
            "\n"
            "    def table(self, name):\n"
        ),
        catcher="tests/test_runtime_cache.py::"
                "test_reloaded_table_plans_and_estimates_as_if_cold",
    ),
    dict(
        id="statistics-keep-caches",
        guards="invalidation",
        file="src/repro/engine/database.py",
        search=(
            "                    TableStats.collect(view_table, encodings)\n"
            "                )\n"
            "        self.invalidate_caches()\n"
        ),
        replace=(
            "                    TableStats.collect(view_table, encodings)\n"
            "                )\n"
        ),
        catcher="tests/test_runtime_cache.py::"
                "test_collect_statistics_invalidates_estimates",
    ),
    dict(
        id="configuration-keeps-caches",
        guards="invalidation",
        file="src/repro/engine/database.py",
        search=(
            "            self._view_stats.put("
            "TableStats.collect(view_table, encodings))\n"
            "        self.invalidate_caches()\n"
        ),
        replace=(
            "            self._view_stats.put("
            "TableStats.collect(view_table, encodings))\n"
        ),
        catcher="tests/test_runtime_cache.py::"
                "test_database_tracks_current_fingerprint",
    ),
    dict(
        id="insert-keeps-caches",
        guards="invalidation",
        file="src/repro/engine/database.py",
        search=(
            "        self._view_size_cache.clear()\n"
            "        self.invalidate_caches()\n"
            "        heights = []\n"
        ),
        replace=(
            "        self._view_size_cache.clear()\n"
            "        heights = []\n"
        ),
        catcher="tests/test_engine_integration.py::"
                "test_insert_keeps_queries_correct",
    ),
    # -- seeds: every generator is derived from a seed
    dict(
        id="sample-unseeded",
        guards="seeded randomness",
        file="src/repro/workload/sampling.py",
        search="    rng = make_rng(seed)\n",
        replace="    rng = np.random.default_rng()\n",
        catcher="tests/test_workloads.py::"
                "test_stratified_sample_deterministic",
    ),
    dict(
        id="insert-batch-unseeded",
        guards="seeded randomness",
        file="src/repro/workload/updates.py",
        search="    rng = make_rng(seed)\n",
        replace="    rng = np.random.default_rng()\n",
        catcher="tests/test_updates.py::test_nref_batch_follows_its_seed",
    ),
    # -- the clock: wall time reaches no key, cost or seed
    dict(
        id="clock-in-artifact-key",
        guards="wall clock",
        file="src/repro/bench/context.py",
        search=(
            "        return artifact_key("
            "*self.settings.content_key(), *parts)\n"
        ),
        replace=(
            "        stamp = obs.perf_seconds()\n"
            "        return artifact_key("
            "stamp, *self.settings.content_key(), *parts)\n"
        ),
        catcher="tests/test_artifact_cache.py::"
                "test_bench_context_warm_start_from_disk",
    ),
    dict(
        id="clock-in-view-build-cost",
        guards="wall clock",
        file="src/repro/engine/database.py",
        search=(
            "        for view_def in config.views:\n"
            "            view_table, _input_rows = build_view(\n"
            "                view_def, self.tables, self.catalog, encodings\n"
            "            )\n"
            "            state.view_tables[view_def.name] = view_table\n"
            "            input_cost = self._view_input_cost(view_def)\n"
        ),
        replace=(
            "        for view_def in config.views:\n"
            "            started = obs.perf_seconds()\n"
            "            view_table, _input_rows = build_view(\n"
            "                view_def, self.tables, self.catalog, encodings\n"
            "            )\n"
            "            state.view_tables[view_def.name] = view_table\n"
            "            input_cost = self._view_input_cost(view_def) + (\n"
            "                obs.perf_seconds() - started\n"
            "            )\n"
        ),
        catcher="tests/test_golden_figures.py::"
                "test_figure_matches_golden_fingerprints[tab1]",
    ),
    dict(
        id="clock-as-insert-seed",
        guards="wall clock",
        file="src/repro/workload/updates.py",
        search=(
            "from ..common.rng import make_rng\n"
            "\n"
            "\n"
            "def nref_neighboring_batch(database, size, seed=77):\n"
            '    """A batch of new ``neighboring_seq`` rows referencing '
            'real proteins."""\n'
            "    rng = make_rng(seed)\n"
        ),
        replace=(
            "from ..common.rng import make_rng\n"
            "import time\n"
            "\n"
            "\n"
            "def nref_neighboring_batch(database, size, seed=77):\n"
            '    """A batch of new ``neighboring_seq`` rows referencing '
            'real proteins."""\n'
            "    rng = make_rng(time.time_ns())\n"
        ),
        catcher="tests/test_updates.py::test_nref_batch_follows_its_seed",
    ),
    # -- the executor
    dict(
        id="groupjoin-distinct-as-rows",
        guards="executor",
        file="src/repro/executor/groupjoin.py",
        search=(
            "            elif _alias(str(agg.arg)) in on_a:\n"
            '                rules.append("a")\n'
        ),
        replace=(
            "            elif _alias(str(agg.arg)) in on_a:\n"
            '                rules.append("rows")\n'
        ),
        catcher="tests/test_join_aggregates.py::test_counted_equals_expanded",
    ),
    dict(
        id="missing-slot-read-as-zero",
        guards="executor",
        file="src/repro/executor/groupjoin.py",
        search="    return np.where(found, slots, -1).astype(\n",
        replace="    return np.where(found, slots, 0).astype(\n",
        catcher="tests/test_join_aggregates.py::test_counted_equals_expanded",
    ),
    dict(
        id="semijoin-flags-missing-value",
        guards="executor",
        file="src/repro/executor/engine.py",
        search="    flags[slots[slots >= 0]] = True\n",
        replace="    flags[slots] = True\n",
        catcher="tests/test_executor.py::"
                "test_semijoin_on_value_missing_from_the_dictionary",
    ),
    dict(
        id="view-semijoin-threshold-off-by-one",
        guards="executor",
        file="src/repro/executor/engine.py",
        search=(
            "                table.column(COUNT_COLUMN), semi.having_op,\n"
            "                semi.having_value,\n"
        ),
        replace=(
            "                table.column(COUNT_COLUMN), semi.having_op,\n"
            "                semi.having_value + 1,\n"
        ),
        catcher="tests/test_differential.py::"
                "test_property_engine_matches_reference",
    ),
    dict(
        id="domain-kept-for-outside-tail",
        guards="executor",
        file="src/repro/storage/encoding.py",
        search=(
            "            if inside.all():\n"
            "                domain = self.domain\n"
        ),
        replace=(
            "            if inside.any():\n"
            "                domain = self.domain\n"
        ),
        catcher="tests/test_encoding.py::"
                "test_property_extension_keeps_the_domain_while_values_are_in_it",
    ),
    # -- the cost model
    dict(
        id="scattered-fetch-as-sequential",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    scattered_cost = scattered * hw.random_page_read_s\n",
        replace="    scattered_cost = scattered * hw.seq_page_read_s\n",
        catcher="tests/test_cost_model.py::"
                "test_heap_fetch_charges_the_cheaper_of_scattered_and_bitmap_reads",
    ),
    dict(
        id="spill-at-the-limit",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    if n_bytes <= limit:\n",
        replace="    if n_bytes < limit:\n",
        catcher="tests/test_cost_model.py::"
                "test_spill_writes_and_reads_back_every_page_beyond_work_mem",
    ),
    dict(
        id="hash-build-without-row-cpu",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    return rows * (hw.hash_row_s + hw.cpu_row_s) + spill(",
        replace="    return rows * hw.hash_row_s + spill(",
        catcher="tests/test_cost_model.py::"
                "test_hash_build_charges_a_hash_and_a_row_per_input_row",
    ),
    dict(
        id="hash-probe-charges-row-cpu",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    return rows * hw.hash_row_s\n",
        replace="    return rows * (hw.hash_row_s + hw.cpu_row_s)\n",
        catcher="tests/test_cost_model.py::"
                "test_hash_probe_charges_one_hash_per_probe_and_never_spills",
    ),
    dict(
        id="join-output-spills-by-rows",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    return rows * hw.cpu_row_s + spill(hw, rows * row_width)\n",
        replace="    return rows * hw.cpu_row_s + spill(hw, rows)\n",
        catcher="tests/test_cost_model.py::"
                "test_join_output_charges_a_row_per_output_row_and_spills_by_bytes",
    ),
    dict(
        id="probed-leaves-read-at-random",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search=(
            "    leaf_cost = min(\n"
            "        leaves * hw.random_page_read_s,\n"
            "        leaves * hw.seq_page_read_s * 1.5,\n"
            "    )\n"
        ),
        replace="    leaf_cost = leaves * hw.random_page_read_s\n",
        catcher="tests/test_cost_model.py::"
                "test_index_probes_read_the_touched_leaves_in_leaf_order",
    ),
    dict(
        id="seq-scan-reads-pages-at-random",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    return pages * hw.seq_page_read_s + rows * hw.cpu_row_s\n",
        replace="    return pages * hw.random_page_read_s + rows * hw.cpu_row_s\n",
        catcher="tests/test_cost_model.py::"
                "test_seq_scan_reads_every_page_in_order_and_a_row_per_row",
    ),
    dict(
        id="filter-charges-one-predicate",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    return rows * max(1, n_predicates) * hw.cpu_row_s\n",
        replace="    return rows * hw.cpu_row_s\n",
        catcher="tests/test_cost_model.py::"
                "test_filter_rows_charges_a_row_per_row_and_predicate",
    ),
    dict(
        id="aggregate-groups-without-cpu",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search=(
            "        in_rows * hw.hash_row_s\n"
            "        + groups * hw.cpu_row_s\n"
        ),
        replace="        in_rows * hw.hash_row_s\n",
        catcher="tests/test_cost_model.py::"
                "test_hash_aggregate_charges_a_hash_per_row_and_a_row_per_group",
    ),
    dict(
        id="sort-linear-not-loglinear",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    cpu = rows * math.log2(rows) * hw.sort_row_s\n",
        replace="    cpu = rows * hw.sort_row_s\n",
        catcher="tests/test_cost_model.py::"
                "test_sort_charges_n_log_n_comparisons_and_spills_by_bytes",
    ),
    dict(
        id="view-build-writes-no-pages",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search=(
            "    return input_cost + out_rows * hw.cpu_row_s"
            " + pages * hw.page_write_s\n"
        ),
        replace="    return input_cost + out_rows * hw.cpu_row_s\n",
        catcher="tests/test_cost_model.py::"
                "test_build_view_adds_a_row_per_output_row_and_writes_its_pages",
    ),
    dict(
        id="descent-reads-every-level",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    del height\n    return hw.random_page_read_s\n",
        replace="    return height * hw.random_page_read_s\n",
        catcher="tests/test_cost_model.py::"
                "test_index_descend_charges_one_random_read_at_any_height",
    ),
    dict(
        id="leaf-range-drops-a-partial-page",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    pages = max(1.0, math.ceil(frac * leaf_pages))",
        replace="    pages = max(1.0, math.floor(frac * leaf_pages))",
        catcher="tests/test_cost_model.py::"
                "test_index_leaf_range_reads_its_share_of_leaves_in_order",
    ),
    dict(
        id="index-build-sorts-keys-without-row-ids",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="        + sort(hw, rows, key_width + 12)\n",
        replace="        + sort(hw, rows, key_width)\n",
        catcher="tests/test_cost_model.py::"
                "test_build_index_scans_sorts_entries_with_row_ids_and_writes_leaves",
    ),
    dict(
        id="insert-charges-indexes-by-height",
        guards="cost model",
        file="src/repro/optimizer/cost_model.py",
        search="    cost += len(index_heights) * rows * (\n",
        replace="    cost += sum(index_heights) * rows * (\n",
        catcher="tests/test_cost_model.py::"
                "test_insert_rows_writes_heap_pages_and_charges_each_index_alike",
    ),
    # -- view sizing: an exact count, and no sort order kept for it
    dict(
        id="view-size-span-one-short",
        guards="view sizing",
        file="src/repro/engine/database.py",
        search="        key *= n_distinct\n",
        replace="        key *= n_distinct - 1\n",
        catcher="tests/test_environment.py::"
                "test_property_hypothetical_view_size_counts_packed_key_tuples",
    ),
    dict(
        id="view-sizing-memoizes-a-sort",
        guards="view sizing",
        file="src/repro/engine/database.py",
        search=(
            "                else:\n"
            "                    distinct = _distinct_key_tuples([\n"
        ),
        replace=(
            "                else:\n"
            "                    encodings.lexsort(table, columns)\n"
            "                    distinct = _distinct_key_tuples([\n"
        ),
        catcher="ci: Resident bytes per row",
    ),
    # -- the estimator
    dict(
        id="frequency-bucket-off-by-one",
        guards="estimator",
        file="src/repro/stats/column_stats.py",
        search=(
            "        idx = np.searchsorted(self.freq_values, threshold, "
            'side="right") - 1\n'
        ),
        replace=(
            "        idx = np.searchsorted(self.freq_values, threshold, "
            'side="left") - 1\n'
        ),
        catcher="tests/test_stats.py::test_frequency_selectivity_exact",
    ),
    # -- the recommender
    dict(
        id="later-tie-wins",
        guards="recommender",
        file="src/repro/recommender/whatif.py",
        search="                lost = not (score > leader[0] or (\n",
        replace="                lost = not (score >= leader[0] or (\n",
        catcher="tests/test_recommender.py::"
                "test_rival_tied_from_a_later_position_loses",
    ),
    dict(
        id="budget-short-by-one-byte",
        guards="recommender",
        file="src/repro/recommender/whatif.py",
        search="            if used + extra > budget_bytes:\n",
        replace="            if used + extra >= budget_bytes:\n",
        catcher="tests/test_recommender.py::"
                "test_candidate_that_fills_the_budget_to_the_byte_is_eligible",
    ),
    dict(
        id="goal-bound-keeps-unpriced-costs",
        guards="recommender",
        file="src/repro/recommender/goal_driven.py",
        search="                trial[relevant] = after\n",
        replace=(
            "                trial[relevant] = "
            "[a or b for a, b in zip(after, before)]\n"
        ),
        catcher="tests/test_reference_recommender.py::"
                "test_goal_product_selects_what_the_textbook_greedy_selects"
                "[B-NREF3J-True]",
    ),
    # -- the relevance rule: a structure it rejects changes no plan
    dict(
        id="view-rule-reads-only-group-by",
        guards="relevance rule",
        file="src/repro/recommender/costservice.py",
        search=(
            "        if bound is not None and "
            "single_view_columns(bound, view):\n"
        ),
        replace=(
            "        if bound is not None and bound.group_by and all(\n"
            "            view.column_for(bound.relations[ref.alias], "
            "ref.column)\n"
            "            for ref in bound.group_by\n"
            "        ):\n"
        ),
        catcher="tests/test_whatif_service.py::"
                "test_a_candidate_the_rule_rejects_changes_no_plan[C-SkTH3J]",
    ),
    dict(
        id="join-columns-dropped-without-semijoin",
        guards="relevance rule",
        file="src/repro/recommender/costservice.py",
        search="                if ref.alias not in semi_aliases:\n",
        replace="                if ref.alias in semi_aliases:\n",
        catcher="tests/test_whatif_service.py::"
                "test_a_candidate_the_rule_rejects_changes_no_plan[A-NREF3J]",
    ),
    # -- measurement memo: A(q, C) by plan fingerprint while the rows stand
    dict(
        id="fingerprint-omits-driving-source",
        guards="measurement memo",
        file="src/repro/optimizer/plans.py",
        search=(
            '            _index_fact("index", self.index),\n'
            '            *_semi_facts("drive", [self.driving]),\n'
        ),
        replace='            _index_fact("index", self.index),\n',
        catcher="tests/test_plan_shape.py::"
                "test_every_family_plan_reads_codes_of_scanned_keys"
                "[A-NREF2J]",
    ),
    dict(
        id="insert-keeps-measurements",
        guards="measurement memo",
        file="src/repro/engine/database.py",
        search=(
            '        self._caches["data"]["measure_cache"].invalidate()\n'
            "        self._view_size_cache.clear()\n"
        ),
        replace="        self._view_size_cache.clear()\n",
        catcher="tests/test_runtime_cache.py::"
                "test_measure_is_execute_until_the_rows_change",
    ),
    dict(
        id="memo-key-drops-timeout",
        guards="measurement memo",
        file="src/repro/engine/database.py",
        search="            (bound.sql, plan.fingerprint, timeout), run\n",
        replace="            (bound.sql, plan.fingerprint), run\n",
        catcher="tests/test_runtime_cache.py::"
                "test_a_measurement_is_kept_per_timeout",
    ),
    # -- code widths: int16 codes up to 32 768 values, int64 arithmetic
    dict(
        id="codes-combine-in-own-dtype",
        guards="code widths",
        file="src/repro/executor/batch.py",
        search="    combined = code_arrays[0].astype(np.int64)\n",
        replace="    combined = code_arrays[0]\n",
        catcher="tests/test_batch.py::"
                "test_property_combine_codes_widens_int16_codes",
    ),
    dict(
        id="extension-keeps-int16-codes",
        guards="code widths",
        file="src/repro/storage/encoding.py",
        search=(
            "            spare = spare_buffer(rows, "
            "code_dtype(len(values)))\n"
        ),
        replace="            spare = spare_buffer(rows, self._codes.dtype)\n",
        catcher="tests/test_encoding.py::"
                "test_property_codes_take_two_bytes_up_to_32768_values",
    ),
    dict(
        id="index-range-end-in-code-dtype",
        guards="code widths",
        file="src/repro/executor/engine.py",
        search=(
            "        return lows, "
            "data.offsets[np.add(slots, 1, dtype=np.int64)]\n"
        ),
        replace="        return lows, data.offsets[slots + 1]\n",
        catcher="tests/test_executor.py::"
                "test_codes_on_both_sides_of_32768_values_answer_as_sqlite",
    ),
    dict(
        id="index-merge-run-end-in-code-dtype",
        guards="code widths",
        file="src/repro/index/data.py",
        search="        lead = tails[0].astype(np.int64)\n",
        replace="        lead = tails[0]\n",
        catcher="tests/test_index_data.py::"
                "test_appends_at_code_32767_and_past_it_equal_a_rebuild"
                "[key0]",
    ),
    # -- index builds: an index is sorted when it is first read
    dict(
        id="index-built-at-construction",
        guards="index builds",
        file="src/repro/index/data.py",
        search=(
            "        self._owed = (None, table, encodings)\n"
            "        self._set_size(table, table.row_count)\n"
        ),
        replace="        self._build(table, encodings)\n",
        catcher="tests/test_index_data.py::"
                "test_an_unread_index_is_never_sorted",
    ),
    dict(
        id="re-deferred-build-merges",
        guards="index builds",
        file="src/repro/index/data.py",
        search="        base = self if owed is None else owed[0]\n",
        replace=(
            "        base = self if owed is None or owed[0] is None "
            "else owed[0]\n"
        ),
        catcher="tests/test_index_data.py::"
                "test_a_deferred_index_merges_once_for_inserts_before_its_read",
    ),
    # -- dictionaries: codes counted or sorted, orders only when asked
    dict(
        id="counting-drops-the-top-value",
        guards="dictionaries",
        file="src/repro/storage/encoding.py",
        search="        present = np.flatnonzero(counts)\n",
        replace="        present = np.flatnonzero(counts[:rows])\n",
        catcher="tests/test_encoding.py::"
                "test_property_integer_dictionary_is_np_unique_without_"
                "an_order",
    ),
    dict(
        id="lexsort-packs-an-overflowing-tuple",
        guards="dictionaries",
        file="src/repro/storage/encoding.py",
        search=(
            "            max(math.prod(d.n_distinct for d in dictionaries) "
            "- 1, 0),\n"
        ),
        replace="            0,\n",
        catcher="tests/test_encoding.py::"
                "test_lexsort_packs_a_narrow_tuple_and_levels_a_wide_one",
    ),
    # -- planner caches: sampling's bulk estimate and the join graphs
    dict(
        id="bulk-estimate-keeps-plans",
        guards="planner caches",
        file="src/repro/engine/database.py",
        search=(
            "            costs.append("
            "planner.plan(binder.bind(parse(sql))).est.cost)\n"
        ),
        replace="            costs.append(self.estimate(sql))\n",
        catcher="tests/test_bulk_estimate.py::"
                "test_bulk_estimate_is_exact_caches_nothing_and_shares_"
                "join_graphs[C-SkTH3J]",
    ),
    dict(
        id="join-graph-key-drops-predicates",
        guards="planner caches",
        file="src/repro/optimizer/planner.py",
        search=(
            "    key = (tuple(bound.relations.items()), "
            "tuple(bound.join_preds))\n"
        ),
        replace="    key = tuple(bound.relations.items())\n",
        catcher="tests/test_bulk_estimate.py::"
                "test_bulk_estimate_is_exact_caches_nothing_and_shares_"
                "join_graphs[C-SkTH3J]",
    ),
    # -- determinism: set order on a path only fig9 takes
    dict(
        id="unth3j-in-set-order",
        guards="determinism",
        file="src/repro/workload/tpch_families.py",
        search=(
            '    workload = _generate_3j(database, "UnTH3J", '
            "include_subquery=True)\n"
            "    return workload\n"
        ),
        replace=(
            '    workload = _generate_3j(database, "UnTH3J", '
            "include_subquery=True)\n"
            "    order = list({query.sql for query in workload.queries})\n"
            "    workload.queries.sort(key=lambda q: order.index(q.sql))\n"
            "    return workload\n"
        ),
        catcher="ci: A run does not depend on the hash seed",
    ),
]
