"""One driver per table and figure of the paper.

Every driver returns an :class:`ExperimentResult` whose ``text`` is a
self-contained report (tables + ASCII charts) and whose ``data`` holds
the raw series, so tests and EXPERIMENTS.md can both consume it.
"""

from dataclasses import dataclass, field

import numpy as np

from ..analysis.binning import ratio_histogram, time_histogram
from ..analysis.cfc import CumulativeFrequencyCurve, dominates, log_grid
from ..analysis.charts import render_cfc, render_histogram, render_table
from ..analysis.goals import example2_goal, improvement_ratio
from ..analysis.measurements import estimate_workload
from ..analysis.ratios import air, eir, hir, ratio_summary
from ..common.units import GIB, minutes
from ..workload.updates import break_even_inserts, nref_neighboring_batch
from .context import FAMILY_DATASET

# Rows of the Section 4.4 insert probe.
PROBE_ROWS = 1000


@dataclass
class ExperimentResult:
    """A reproduced table/figure."""

    experiment: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self):
        return f"== {self.experiment}: {self.title} ==\n{self.text}"


# ----------------------------------------------------------------------
# Figures 1-2: histograms of NREF2J on System A (P vs recommended)

def figure_1_2(ctx):
    sections, data = [], {}
    for config in ("P", "R"):
        measurement = ctx.measure("A", "NREF2J", config)
        if measurement is None:
            sections.append(f"[{config}] no recommendation produced")
            continue
        histogram = time_histogram(measurement)
        label = "Figure 1 (P)" if config == "P" else "Figure 2 (R)"
        sections.append(
            render_histogram(
                histogram,
                title=f"{label}: System A, NREF2J, config {config} "
                      f"(seconds per bin, t_out = {measurement.timeout:.0f}s)",
            )
        )
        data[config] = {
            "histogram": histogram.rows(),
            "timeouts": measurement.timeout_count,
        }
    return ExperimentResult(
        experiment="fig1-2",
        title="Query time histograms, System A on NREF2J (P vs R)",
        text="\n\n".join(sections),
        data=data,
    )


# ----------------------------------------------------------------------
# Figures 3-9: cumulative frequency curves

_CFC_FIGURES = {
    "fig3": ("A", "NREF2J", "Behavior of System A on NREF2J"),
    "fig4": ("A", "NREF3J", "Behavior of System A on NREF3J "
                            "(no R: recommender gave up)"),
    "fig5": ("B", "NREF2J", "Behavior of System B on NREF2J"),
    "fig6": ("B", "NREF3J", "Behavior of System B on NREF3J"),
    "fig7": ("C", "SkTH3Js", "Behavior of System C on SkTH3Js"),
    "fig8": ("C", "SkTH3J", "Behavior of System C on SkTH3J"),
    "fig9": ("C", "UnTH3J", "Behavior of System C on UnTH3J"),
}


def figure_cfc(figure, ctx):
    """Any of the CFC figures (fig3..fig9)."""
    system, family, title = _CFC_FIGURES[figure]
    grid = log_grid(lo=1.0, hi=ctx.settings.timeout, points_per_decade=2)

    curves, data = [], {}
    for config in ("P", "1C", "R"):
        measurement = ctx.measure(system, family, config)
        if measurement is None:
            data[config] = None
            continue
        curve = CumulativeFrequencyCurve(measurement)
        curves.append(curve)
        data[config] = {
            "grid": grid.tolist(),
            "cfc": curve(grid).tolist(),
            "timeouts": measurement.timeout_count,
            "lower_bound_total": measurement.lower_bound_total(),
        }

    text = render_cfc(curves, grid, title=title)
    named = {c.name: c for c in curves}
    goal = example2_goal(ctx.settings.timeout)
    goal_rows = [
        (c.name, "yes" if goal.satisfied_by(c) else "no",
         f"{goal.margin(c):+.2f}")
        for c in curves
    ]
    text += "\n\n" + render_table(
        ["config", "satisfies Example-2 goal", "margin"],
        goal_rows,
        title="Performance goal check (Example 2)",
    )
    if "1C" in named and "P" in named:
        data["1C_dominates_P"] = dominates(named["1C"], named["P"], grid)
    if "1C" in named and "R" in named:
        data["1C_dominates_R"] = dominates(named["1C"], named["R"], grid)
    data["goal"] = {name: ok for name, ok, _ in goal_rows}
    return ExperimentResult(
        experiment=figure, title=title, text=text, data=data
    )


# ----------------------------------------------------------------------
# Figure 10: estimated and hypothetical cost curves, System B / NREF3J

def figure_10(ctx):
    system, family = "B", "NREF3J"
    db = ctx.database(system, FAMILY_DATASET[family])
    workload = ctx.workload(system, family)
    p_config = ctx.p_configuration(db)
    one_c = ctx.one_c_configuration(db)
    r_config, _ = ctx.recommendation(system, family)

    curves, data = [], {}

    # Hypothetical estimates are taken while the system sits in P.
    ctx.measure(system, family, "P")   # ensures P is built
    db.apply_configuration(p_config)
    db.collect_statistics()
    for label, config in (("EP", None), ("HR", r_config), ("H1C", one_c)):
        if label == "EP":
            m = estimate_workload(db, workload, configuration="EP")
        else:
            if config is None:
                continue
            m = estimate_workload(
                db, workload, configuration=label, hypothetical=config
            )
        curves.append(CumulativeFrequencyCurve(m))
        data[label] = m.elapsed.tolist()

    # Target-configuration estimates require the configuration built.
    for label, config in (("ER", r_config), ("E1C", one_c)):
        if config is None:
            continue
        db.apply_configuration(config)
        db.collect_statistics()
        m = estimate_workload(db, workload, configuration=label)
        curves.append(CumulativeFrequencyCurve(m))
        data[label] = m.elapsed.tolist()

    all_costs = np.concatenate(
        [np.asarray(v) for v in data.values() if v]
    )
    grid = log_grid(
        lo=max(0.1, float(all_costs.min())),
        hi=float(all_costs.max()) * 1.01,
        points_per_decade=2,
    )
    text = render_cfc(
        curves, grid,
        title="Figure 10: cumulative curves of optimizer estimates "
              "(E*) and hypothetical estimates (H*), System B, NREF3J",
    )
    return ExperimentResult(
        experiment="fig10",
        title="Estimate curves EP/ER/E1C vs hypothetical HR/H1C",
        text=text,
        data=data,
    )


# ----------------------------------------------------------------------
# Figure 11: improvement ratio histograms (R vs 1C), System B / NREF3J

def figure_11(ctx):
    system, family = "B", "NREF3J"
    db = ctx.database(system, FAMILY_DATASET[family])
    workload = ctx.workload(system, family)
    r_config, _ = ctx.recommendation(system, family)
    one_c = ctx.one_c_configuration(db)

    actual_r = ctx.measure(system, family, "R")
    actual_1c = ctx.measure(system, family, "1C")

    # Hypothetical estimates from P.
    db.apply_configuration(ctx.p_configuration(db))
    db.collect_statistics()
    h_r = estimate_workload(db, workload, "HR", hypothetical=r_config)
    h_1c = estimate_workload(db, workload, "H1C", hypothetical=one_c)

    # Estimates in the target configurations.
    db.apply_configuration(r_config)
    db.collect_statistics()
    e_r = estimate_workload(db, workload, "ER")
    db.apply_configuration(one_c)
    db.collect_statistics()
    e_1c = estimate_workload(db, workload, "E1C")

    ratios = {
        "AIR": air(actual_r, actual_1c),
        "EIR": eir(e_r, e_1c),
        "HIR": hir(h_r, h_1c),
    }
    sections, data = [], {}
    for label, values in ratios.items():
        histogram = ratio_histogram(values)
        sections.append(
            render_histogram(
                histogram,
                title=f"{label}: ratio of R to 1C "
                      f"(>1 means 1C is faster); n={len(values)}",
            )
        )
        data[label] = {
            "ratios": np.asarray(values).tolist(),
            "summary": ratio_summary(values),
        }
    return ExperimentResult(
        experiment="fig11",
        title="Improvement ratios AIR/EIR/HIR of R vs 1C "
              "(System B, NREF3J)",
        text="\n\n".join(sections),
        data=data,
    )


# ----------------------------------------------------------------------
# Table 1: sizes and build times of every configuration

TABLE1_ROWS = (
    ("A", "nref", "NREF", "P", None),
    ("A", "nref", "NREF2J", "R", "NREF2J"),
    ("A", "nref", "NREF", "1C", None),
    ("B", "nref", "NREF", "P", None),
    ("B", "nref", "NREF2J", "R", "NREF2J"),
    ("B", "nref", "NREF3J", "R", "NREF3J"),
    ("B", "nref", "NREF", "1C", None),
    ("C", "skth", "SkTH", "P", None),
    ("C", "skth", "SkTH3J", "R", "SkTH3J"),
    ("C", "skth", "SkTH3Js", "R", "SkTH3Js"),
    ("C", "skth", "SkTH", "1C", None),
    ("C", "unth", "UnTH", "P", None),
    ("C", "unth", "UnTH3J", "R", "UnTH3J"),
    ("C", "unth", "UnTH", "1C", None),
)


def table_1(ctx):
    rows, data = [], {}
    for system, dataset, label, config, family in TABLE1_ROWS:
        key = config if family is None else f"R:{family}"
        report = ctx.build_report(system, dataset, key, family=family)
        name = f"{system} {label} {config}"
        if report is None:
            rows.append((name, "-", "-"))
            data[name] = None
            continue
        rows.append(
            (
                name,
                f"{report.total_bytes / GIB:.3f}",
                f"{minutes(report.build_seconds):.0f}",
            )
        )
        data[name] = {
            "bytes": report.total_bytes,
            "build_seconds": report.build_seconds,
        }
    text = render_table(
        ["Configuration", "Size (GB)", "Build time (virtual min)"],
        rows,
        title="Table 1: sizes and build times of all configurations",
    )
    return ExperimentResult(
        experiment="tab1",
        title="Sizes and build times of all configurations",
        text=text,
        data=data,
    )


# ----------------------------------------------------------------------
# Tables 2-3: index width histograms of the recommendations

def _index_table(ctx, rows_spec, experiment, title):
    columns = {}
    all_targets = set()
    for system, family in rows_spec:
        config, _ = ctx.recommendation(system, family)
        label = f"{system} {family} R"
        if config is None:
            columns[label] = None
            continue
        histogram = config.index_width_histogram()
        columns[label] = histogram
        all_targets.update(histogram)
    targets = sorted(all_targets)
    headers = ["Table"] + [
        f"{label} {w}c" for label in columns for w in (1, 2, 3, 4)
    ]
    rows = []
    for target in targets:
        row = [target]
        for label, histogram in columns.items():
            counts = (histogram or {}).get(target, [0, 0, 0, 0])
            row.extend(counts)
        rows.append(row)
    totals = ["Totals"]
    for label, histogram in columns.items():
        sums = [0, 0, 0, 0]
        for counts in (histogram or {}).values():
            for i, c in enumerate(counts):
                sums[i] += c
        totals.extend(sums)
    rows.append(totals)
    text = render_table(headers, rows, title=title)
    for label, histogram in columns.items():
        if histogram is None:
            text += f"\n(no recommendation produced for {label})"
    return ExperimentResult(
        experiment=experiment,
        title=title,
        text=text,
        data={
            label: histogram for label, histogram in columns.items()
        },
    )


def table_2(ctx):
    return _index_table(
        ctx,
        (("A", "NREF2J"), ("B", "NREF2J"), ("B", "NREF3J")),
        "tab2",
        "Table 2: index widths per recommended configuration (NREF)",
    )


def table_3(ctx):
    return _index_table(
        ctx,
        (("C", "SkTH3Js"), ("C", "SkTH3J"), ("C", "UnTH3J")),
        "tab3",
        "Table 3: index widths per recommended configuration (TPC-H), "
        "including indexes on materialized views",
    )


# ----------------------------------------------------------------------
# Section 4.3: timeout-aware workload totals on SkTH3J

def section_4_3(ctx):
    rows, data = [], {}
    measurements = {}
    for config in ("P", "1C", "R"):
        measurement = ctx.measure("C", "SkTH3J", config)
        if measurement is None:
            continue
        measurements[config] = measurement
        rows.append(
            (
                config,
                f"{measurement.completed_total():.0f}",
                measurement.timeout_count,
                f"{measurement.lower_bound_total():.0f}",
            )
        )
        data[config] = {
            "completed_total": measurement.completed_total(),
            "timeouts": measurement.timeout_count,
            "lower_bound": measurement.lower_bound_total(),
        }
    text = render_table(
        ["config", "completed total (s)", "timeouts", "lower bound (s)"],
        rows,
        title="Section 4.3: SkTH3J workload totals (timeout-aware "
              "lower bounds)",
    )
    if "R" in measurements and "1C" in measurements:
        ratio = improvement_ratio(measurements["R"], measurements["1C"])
        text += f"\n1C vs R conservative improvement: {ratio:.1f}x"
        data["ratio_1c_vs_r"] = ratio
    if "P" in measurements and "1C" in measurements:
        ratio = improvement_ratio(measurements["P"], measurements["1C"])
        text += f"\n1C vs P conservative improvement: {ratio:.1f}x"
        data["ratio_1c_vs_p"] = ratio
    return ExperimentResult(
        experiment="sec43",
        title="Workload totals with timeout lower bounds (SkTH3J)",
        text=text,
        data=data,
    )


# ----------------------------------------------------------------------
# Section 4.4: the impact of insertions (break-even analysis)

def section_4_4(ctx, batches=(10_000, 40_000, 100_000)):
    """Insert cost per configuration plus the 1C-vs-R break-even point.

    Inserts go into Neighboring_seq ("both the widest and the largest
    relation"); insert costs are linear per configuration, and the
    break-even count is where 1C's faster queries pay for its slower
    inserts relative to R.
    """
    system, family, table = "A", "NREF2J", "neighboring_seq"
    db = ctx.database(system, FAMILY_DATASET[family])
    workload_cost = {}
    insert_rate = {}
    for config_name in ("P", "R", "1C"):
        measurement = ctx.measure(system, family, config_name)
        if measurement is None:
            continue
        workload_cost[config_name] = measurement.lower_bound_total()
        # Per-tuple insert rate measured on a small probe batch, with the
        # configuration explicitly (re)built so its indexes are the ones
        # maintained by the insert.
        config = ctx._resolve_config(db, system, family, config_name)
        ctx._apply(db, system, family, config)
        # As stored: a string column's dictionary reloads as it is.
        heap = db.table(table)
        found = {
            name: heap.dictionary(name) or heap.column(name)
            for name in heap.column_names()
        }
        seconds = db.insert_rows(
            table, nref_neighboring_batch(db, PROBE_ROWS)
        )
        insert_rate[config_name] = seconds / PROBE_ROWS
        # The context's database is shared with every other experiment:
        # take the probe rows out again and rebuild the configuration
        # over the rows that were there.
        db.load_table(table, found)
        db.apply_configuration(config)
    rows = []
    for config in ("P", "R", "1C"):
        if config not in insert_rate:
            continue
        per_tuple = insert_rate[config]
        rows.append(
            (config, f"{per_tuple * 1e3:.3f}",)
            + tuple(f"{per_tuple * n:.0f}" for n in batches)
        )
    text = render_table(
        ["config", "ms/tuple"] + [f"{n} tuples (s)" for n in batches],
        rows,
        title="Section 4.4: insertion cost into Neighboring_seq "
              "(linear in the batch size)",
    )
    data = {"insert_rate": insert_rate, "workload_cost": workload_cost}
    if {"R", "1C"} <= set(insert_rate):
        gain = workload_cost["R"] - workload_cost["1C"]
        break_even = break_even_inserts(
            insert_rate["1C"], insert_rate["R"], gain
        )
        if gain > 0 and break_even < float("inf"):
            text += (
                f"\nBreak-even: inserting {break_even:,.0f} tuples makes "
                "1C (slower inserts, faster queries) equal to R "
                "(faster inserts, slower queries) on insertions + one "
                "workload execution."
            )
            data["break_even_tuples"] = break_even
    return ExperimentResult(
        experiment="sec44",
        title="Impact of insertions and the 1C-vs-R break-even",
        text=text,
        data=data,
    )


ALL_EXPERIMENTS = {
    "fig1-2": figure_1_2,
    "fig3": lambda ctx: figure_cfc("fig3", ctx),
    "fig4": lambda ctx: figure_cfc("fig4", ctx),
    "fig5": lambda ctx: figure_cfc("fig5", ctx),
    "fig6": lambda ctx: figure_cfc("fig6", ctx),
    "fig7": lambda ctx: figure_cfc("fig7", ctx),
    "fig8": lambda ctx: figure_cfc("fig8", ctx),
    "fig9": lambda ctx: figure_cfc("fig9", ctx),
    "fig10": figure_10,
    "fig11": figure_11,
    "tab1": table_1,
    "tab2": table_2,
    "tab3": table_3,
    "sec43": section_4_3,
    "sec44": section_4_4,
}
