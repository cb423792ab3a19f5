"""Shared experiment context.

Building a database, sampling a 100-query workload, constructing P/1C,
obtaining a recommendation and measuring workloads are shared by every
figure and table; this module stores those artifacts in a
fingerprint-keyed :class:`~repro.runtime.ArtifactCache` so a full
benchmark run builds each artifact once — and, when the store has a
directory (``--cache-dir``), persists them so a *second* run skips the
builds entirely.

A run is its :class:`BenchSettings` — the ``run`` command's flags — and
its artifact store; nothing is read from the environment.

Every stage is timed (:meth:`BenchContext.stats_report` prints seconds
per phase, artifact-cache traffic, and each database's planner-cache hit
rates).
"""

from dataclasses import dataclass

from .. import obs
from ..common.errors import RecommenderGaveUp
from ..datagen.nref import load_nref_database
from ..datagen.tpch import load_tpch_database
from ..engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from ..engine.systems import by_name as system_by_name
from ..recommender.whatif import WhatIfRecommender
from ..runtime.artifacts import ArtifactCache, StageTimings, artifact_key
from ..runtime.session import MeasurementSession, resolve_jobs
from ..workload.nref_families import generate_nref2j, generate_nref3j
from ..workload.sampling import sample_benchmark_workload
from ..workload.tpch_families import (
    generate_skth3j,
    generate_skth3js,
    generate_unth3j,
)

FAMILY_GENERATORS = {
    "NREF2J": generate_nref2j,
    "NREF3J": generate_nref3j,
    "SkTH3J": generate_skth3j,
    "SkTH3Js": generate_skth3js,
    "UnTH3J": generate_unth3j,
}

FAMILY_DATASET = {
    "NREF2J": "nref",
    "NREF3J": "nref",
    "SkTH3J": "skth",
    "SkTH3Js": "skth",
    "UnTH3J": "unth",
}


@dataclass(frozen=True)
class BenchSettings:
    """Scale and sampling knobs of one benchmark run."""

    scale: float = 1.0
    workload_size: int = 100
    timeout: float = 1800.0
    seed: int = 405
    jobs: int = 1

    def content_key(self):
        """The settings fields that determine artifact content.

        ``jobs`` is deliberately excluded: parallel and serial runs
        produce bit-identical artifacts, so they share cache entries.
        """
        return (self.scale, self.workload_size, self.timeout, self.seed)


class BenchContext:
    """Fingerprint-keyed store of databases, workloads, and measurements."""

    def __init__(self, settings=None, artifacts=None):
        self.settings = settings or BenchSettings()
        self.artifacts = artifacts or ArtifactCache()
        self.timings = StageTimings()
        self.jobs = resolve_jobs(self.settings.jobs)
        # Databases are mutable (configurations get applied in place).
        # The artifact store's memory tier holds the live instance that
        # ``apply_configuration`` mutates; only its disk tier keeps the
        # *loaded + P-built* snapshot.  This map is the databases this
        # context has used.
        self._live_databases = {}

    def _key(self, *parts):
        return artifact_key(*self.settings.content_key(), *parts)

    # ------------------------------------------------------------------
    # Databases and configurations

    def database(self, system_name, dataset):
        """A loaded database for ``(system, dataset)`` with P applied."""
        live_key = (system_name, dataset)
        if live_key not in self._live_databases:
            key = self._key("database", system_name, dataset)

            def build():
                with self.timings.stage("build_database"), obs.span(
                    "bench.build_database",
                    system=system_name, dataset=dataset,
                ):
                    system = system_by_name(system_name)
                    if dataset == "nref":
                        db = load_nref_database(
                            system, scale=self.settings.scale, name="NREF"
                        )
                    elif dataset == "skth":
                        db = load_tpch_database(
                            system, scale=self.settings.scale,
                            zipf=1.0, name="SkTH",
                        )
                    elif dataset == "unth":
                        db = load_tpch_database(
                            system, scale=self.settings.scale,
                            zipf=0.0, name="UnTH",
                        )
                    else:
                        raise ValueError(f"unknown dataset {dataset!r}")
                    report = db.apply_configuration(
                        primary_configuration(db.catalog, name="P")
                    )
                    return db, report

            db, report = self.artifacts.get_or_build(
                "database", key, build
            )
            self._live_databases[live_key] = db
            self.artifacts.put(
                "build_report",
                self._key("build_report", system_name, dataset, "P"),
                report,
            )
        return self._live_databases[live_key]

    def p_configuration(self, database):
        return primary_configuration(database.catalog, name="P")

    def one_c_configuration(self, database):
        return one_column_configuration(database.catalog, name="1C")

    def space_budget(self, database):
        """The paper's budget: size(1C) minus size(P), estimated."""
        p_bytes = database.estimated_configuration_bytes(
            self.p_configuration(database)
        )
        one_c_bytes = database.estimated_configuration_bytes(
            self.one_c_configuration(database)
        )
        return max(0, one_c_bytes - p_bytes)

    # ------------------------------------------------------------------
    # Workloads

    def workload(self, system_name, family):
        """The sampled benchmark workload of a family (cached).

        Sampling needs estimated costs, which are taken in the P
        configuration — so the database is (re)set to P first.
        """
        key = self._key("workload", system_name, family)

        def build():
            with self.timings.stage("sample_workload"), obs.span(
                "bench.sample_workload",
                system=system_name, family=family,
            ):
                db = self.database(system_name, FAMILY_DATASET[family])
                self._ensure_configuration(db, system_name, "P")
                full = FAMILY_GENERATORS[family](db)
                sampled = sample_benchmark_workload(
                    db,
                    full,
                    size=self.settings.workload_size,
                    seed=self.settings.seed,
                )
                return full, sampled

        return self.artifacts.get_or_build("workload", key, build)[1]

    def full_family(self, system_name, family):
        self.workload(system_name, family)
        key = self._key("workload", system_name, family)
        return self.artifacts.get("workload", key)[0]

    # ------------------------------------------------------------------
    # Recommendations

    def recommendation(self, system_name, family):
        """The recommended configuration for a family (None on bail-out).

        Returns ``(configuration_or_None, report_or_exception)``.
        """
        key = self._key("recommendation", system_name, family)

        def build():
            with self.timings.stage("recommend"), obs.span(
                "bench.recommend", system=system_name, family=family,
            ):
                db = self.database(system_name, FAMILY_DATASET[family])
                workload = self.workload(system_name, family)
                self._ensure_configuration(db, system_name, "P")
                budget = self.space_budget(db)
                try:
                    report = WhatIfRecommender(db).recommend(
                        workload, budget, name=f"{family}_R"
                    )
                except RecommenderGaveUp as failure:
                    return (None, failure)
                return (report.configuration, report)

        return self.artifacts.get_or_build("recommendation", key, build)

    # ------------------------------------------------------------------
    # Measurements

    def measure(self, system_name, family, config_name):
        """Elapsed times of a family's workload on P / 1C / R (cached)."""
        key = self._key("measurement", system_name, family, config_name)

        def build():
            db = self.database(system_name, FAMILY_DATASET[family])
            workload = self.workload(system_name, family)
            config = self._resolve_config(
                db, system_name, family, config_name
            )
            if config is None:
                return None
            self._apply(db, system_name, family, config)
            with self.timings.stage("measure_workload"), obs.span(
                "bench.measure_workload",
                system=system_name, family=family,
                configuration=config_name,
            ):
                with MeasurementSession(db, jobs=self.jobs) as session:
                    return session.measure(
                        workload,
                        timeout=self.settings.timeout,
                        configuration=config_name,
                    )

        return self.artifacts.get_or_build("measurement", key, build)

    def build_report(self, system_name, dataset, config_name, family=None):
        """BuildReport for a configuration (builds it if needed)."""
        key = self._key("build_report", system_name, dataset, config_name)

        def build():
            db = self.database(system_name, dataset)
            if config_name == "P":
                config = self.p_configuration(db)
            elif config_name == "1C":
                config = self.one_c_configuration(db)
            else:
                config, _ = self.recommendation(system_name, family)
                if config is None:
                    return None
            with self.timings.stage("build_configuration"), obs.span(
                "bench.build_configuration",
                system=system_name, dataset=dataset,
                configuration=config_name,
            ):
                report = db.apply_configuration(
                    config.renamed(config_name)
                )
                db.collect_statistics()
            return report

        return self.artifacts.get_or_build("build_report", key, build)

    # ------------------------------------------------------------------
    # Accounting

    def live_databases(self):
        """``((system, dataset), Database)`` pairs built by this context."""
        return list(self._live_databases.items())

    def run_report(self, recorder=None, experiments=None):
        """The structured run report of this context's work so far.

        Args:
            recorder: the run's :class:`~repro.obs.TraceRecorder`, when
                observability was on (adds metrics, fingerprints, and
                per-query measurement breakdowns).
            experiments: experiment ids for the manifest.

        Returns:
            A dict matching :data:`repro.obs.RUN_REPORT_SCHEMA`.
        """
        return obs.build_run_report(
            self, recorder=recorder, experiments=experiments
        )

    def stats_report(self):
        """Per-stage wall clock, artifact traffic, planner-cache rates.

        A console rendering of :meth:`run_report` (the ``--stats``
        output) — the printed numbers come from the same structured
        report that ``--report`` exports.
        """
        report = self.run_report(recorder=obs.get_recorder())
        return obs.render_text(report)

    # ------------------------------------------------------------------
    # Internals

    def _resolve_config(self, db, system_name, family, config_name):
        if config_name == "P":
            return self.p_configuration(db)
        if config_name == "1C":
            return self.one_c_configuration(db)
        if config_name == "R":
            config, _ = self.recommendation(system_name, family)
            return config
        raise ValueError(f"unknown configuration {config_name!r}")

    def _apply(self, db, system_name, family, config):
        del system_name, family
        # The fingerprint excludes the display name: "R" and
        # "<family>_R" are one physical configuration, built once.
        if db.configuration.fingerprint != config.fingerprint:
            with self.timings.stage("build_configuration"), obs.span(
                "bench.build_configuration", configuration=config.name,
            ):
                db.apply_configuration(config)
                db.collect_statistics()

    def _ensure_configuration(self, db, system_name, config_name):
        if config_name == "P" and db.configuration.name != "P":
            with self.timings.stage("build_configuration"), obs.span(
                "bench.build_configuration", configuration="P",
            ):
                db.apply_configuration(
                    primary_configuration(db.catalog, name="P")
                )
                db.collect_statistics()
