"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's published artifacts: they vary one knob at a
time to show *why* the paper's findings come out the way they do.

* **budget sweep** — the paper notes unlimited-budget recommendations
  "did exhibit better performance ... in some (but not in all) cases";
* **oracle statistics** — recommender quality with ideal what-if
  estimates, isolating the Section 5 estimation gap;
* **skew sweep** — recommender quality as the Zipf factor grows
  (generalizing the Figure 8 vs Figure 9 comparison);
* **workload-size sweep** — System A's candidate explosion as the
  workload grows (the paper got recommendations for 25/12/6/3-query
  NREF3J subsets but not for 100).

Ablations run at a reduced scale (:data:`SCALE`, :data:`WORKLOAD_SIZE`)
so the whole set stays in the minutes; the drivers take both as keyword
arguments.
"""

from ..analysis.measurements import measure_workload
from ..common.errors import RecommenderGaveUp
from ..datagen.nref import load_nref_database
from ..datagen.tpch import load_tpch_database
from ..engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from ..engine.systems import system_a, system_b, system_c
from ..recommender.whatif import WhatIfRecommender
from ..workload.nref_families import generate_nref3j
from ..workload.sampling import sample_benchmark_workload
from ..workload.tpch_families import generate_skth3j
from ..analysis.charts import render_table
from .experiments import ExperimentResult


#: Data scale factor of every ablation.
SCALE = 0.25
#: Queries per sampled ablation workload.
WORKLOAD_SIZE = 25


def _budget(db):
    return (
        db.estimated_configuration_bytes(
            one_column_configuration(db.catalog)
        )
        - db.estimated_configuration_bytes(
            primary_configuration(db.catalog)
        )
    )


def _nref3j_database(system, scale):
    db = load_nref_database(system, scale=scale)
    db.apply_configuration(primary_configuration(db.catalog, name="P"))
    return db


def _nref3j_setup(system, scale, workload_size):
    db = _nref3j_database(system, scale)
    family = generate_nref3j(db)
    workload = sample_benchmark_workload(db, family, size=workload_size)
    return db, workload


def _measure_config(db, workload, config):
    db.apply_configuration(config)
    db.collect_statistics()
    return measure_workload(db, workload, configuration=config.name)


def ablation_budget(scale=SCALE, workload_size=WORKLOAD_SIZE):
    """Space-budget sweep on System B / NREF3J."""
    db, workload = _nref3j_setup(system_b(), scale, workload_size)
    base_budget = _budget(db)
    rows, data = [], {}
    for label, factor in (("quarter", 0.25), ("paper", 1.0),
                          ("unlimited", 64.0)):
        db.apply_configuration(primary_configuration(db.catalog, name="P"))
        db.collect_statistics()
        recommender = WhatIfRecommender(db)
        report = recommender.recommend(
            workload, int(base_budget * factor), name=f"R_{label}"
        )
        measurement = _measure_config(db, workload, report.configuration)
        rows.append(
            (
                label,
                f"{report.used_bytes / 2**20:.0f}",
                len(report.configuration.secondary_indexes()),
                f"{measurement.lower_bound_total():.0f}",
                measurement.timeout_count,
            )
        )
        data[label] = measurement.lower_bound_total()
    text = render_table(
        ["budget", "used MB", "#indexes", "workload total (s)", "timeouts"],
        rows,
        title="Ablation: space-budget sweep (System B, NREF3J)",
    )
    return ExperimentResult("ablation-budget", "Space-budget sweep",
                            text, data)


def ablation_oracle_statistics(scale=SCALE, workload_size=WORKLOAD_SIZE):
    """Degraded vs oracle what-if statistics (System B / NREF3J)."""
    db, workload = _nref3j_setup(system_b(), scale, workload_size)
    budget = _budget(db)
    rows, data = [], {}
    for label, oracle in (("degraded (real tools)", False),
                          ("oracle", True)):
        db.apply_configuration(primary_configuration(db.catalog, name="P"))
        db.collect_statistics()
        recommender = WhatIfRecommender(db, oracle=oracle)
        report = recommender.recommend(workload, budget, name=f"R_{label}")
        measurement = _measure_config(db, workload, report.configuration)
        rows.append(
            (
                label,
                len(report.configuration.secondary_indexes()),
                f"{report.estimated_improvement:.2f}",
                f"{measurement.lower_bound_total():.0f}",
            )
        )
        data[label] = measurement.lower_bound_total()
    one_c = _measure_config(
        db, workload, one_column_configuration(db.catalog, name="1C")
    )
    rows.append(("1C baseline", "-", "-",
                 f"{one_c.lower_bound_total():.0f}"))
    data["1C"] = one_c.lower_bound_total()
    text = render_table(
        ["what-if statistics", "#indexes", "est. improvement",
         "actual workload total (s)"],
        rows,
        title="Ablation: recommender quality vs what-if statistics "
              "fidelity (System B, NREF3J)",
    )
    return ExperimentResult(
        "ablation-oracle", "Oracle vs degraded what-if statistics",
        text, data,
    )


def ablation_skew(scale=SCALE, workload_size=WORKLOAD_SIZE):
    """Zipf-factor sweep on TPC-H (System C, SkTH3J template)."""
    rows, data = [], {}
    for z in (0.0, 0.5, 1.0):
        db = load_tpch_database(system_c(), scale=scale, zipf=z)
        db.apply_configuration(primary_configuration(db.catalog, name="P"))
        family = generate_skth3j(db)
        workload = sample_benchmark_workload(db, family, size=workload_size)
        recommender = WhatIfRecommender(db)
        report = recommender.recommend(workload, _budget(db), name="R")
        r_meas = _measure_config(db, workload, report.configuration)
        c_meas = _measure_config(
            db, workload, one_column_configuration(db.catalog, name="1C")
        )
        ratio = r_meas.lower_bound_total() / max(
            1e-9, c_meas.lower_bound_total()
        )
        rows.append(
            (
                f"z={z:g}",
                f"{r_meas.lower_bound_total():.0f}",
                f"{c_meas.lower_bound_total():.0f}",
                f"{ratio:.2f}",
            )
        )
        data[z] = ratio
    text = render_table(
        ["skew", "R total (s)", "1C total (s)", "R / 1C"],
        rows,
        title="Ablation: Zipf-factor sweep — the recommendation "
              "degrades relative to 1C as skew grows",
    )
    return ExperimentResult("ablation-skew", "Skew sweep", text, data)


def ablation_workload_size(scale=SCALE):
    """System A's NREF3J bail-out as the workload grows (Section 4.1.2)."""
    db = _nref3j_database(system_a(), scale)
    family = generate_nref3j(db)
    rows, data = [], {}
    for size in (3, 6, 12, 25, 100):
        workload = sample_benchmark_workload(db, family, size=size)
        recommender = WhatIfRecommender(db)
        try:
            report = recommender.recommend(workload, _budget(db))
        except RecommenderGaveUp:
            rows.append((size, "-", "GAVE UP"))
            data[size] = None
        else:
            rows.append(
                (size, report.candidate_count,
                 len(report.configuration.secondary_indexes()))
            )
            data[size] = report.candidate_count
    text = render_table(
        ["workload size", "candidates", "#indexes (or GAVE UP)"],
        rows,
        title="Ablation: System A on NREF3J — candidate explosion "
              "with workload size",
    )
    return ExperimentResult(
        "ablation-workload-size", "Workload-size bail-out sweep",
        text, data,
    )
