"""repro.lint — machine-checked reproducibility invariants.

The reproduction's headline guarantees (byte-identical serial/parallel
results, a run that is its command line, a report that matches its
schema) rest on project-wide conventions that no run exercises
deterministically; this package turns each one into an AST-based rule
so CI fails when a convention breaks instead of a figure silently
drifting.  A convention whose defects a test or a CI run catches has
no rule: the mutation table (``tests/mutants/rows.py``) shows which.

Rule catalog (see ``docs/static-analysis.md`` for the rationale):

========  ==============================================================
SCH001    ``build_run_report`` keys and ``RUN_REPORT_SCHEMA``
          properties must agree (both directions)
EXC001    no bare ``except`` and no broad except that never re-raises
LCK002    state shared with executor workers — ``self`` of a
          lock-owning or submitting class, free variables of a
          submitted closure — is written with a lock held on every
          path (interprocedural lockset analysis)
KNB001    no environment-variable reads: a run's settings are its
          command-line flags and arguments
========  ==============================================================

The project-scope rules share one :class:`~repro.lint.callgraph.
CallGraph` per run (``Project.call_graph``) and the dataflow fixpoints
of :mod:`repro.lint.dataflow`.

Run it with ``python -m repro.lint [paths]``.  A finding cannot be
silenced: it is fixed in the code or in the rule.
"""

from .core import Finding, Rule
from .rules import ALL_RULES
from .runner import LintResult, run_lint

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "Rule",
    "run_lint",
]
