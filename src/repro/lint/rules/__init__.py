"""The rule registry: every shipped invariant check, by id.

Adding a rule = adding a module with a :class:`~repro.lint.core.Rule`
subclass and listing an instance here; the CLI, the docs catalog
(``docs/static-analysis.md``) and the test fixtures key off
``ALL_RULES``.
"""

from .exceptions import ExceptionRule
from .knobs import KnobRule
from .races import RaceRule
from .schema_sync import SchemaSyncRule

ALL_RULES = {
    rule.name: rule
    for rule in (
        SchemaSyncRule(),
        ExceptionRule(),
        RaceRule(),
        KnobRule(),
    )
}

__all__ = [
    "ALL_RULES",
    "ExceptionRule",
    "KnobRule",
    "RaceRule",
    "SchemaSyncRule",
]
