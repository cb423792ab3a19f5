"""EXC001 — no bare or silently-swallowed broad exception handlers.

A recommender or runtime path that swallows an exception turns a hard
failure into a silently-wrong figure: a worker that drops a query's
error would still return *some* batch, and nothing downstream could
tell.  The engine's convention is that only specifically-anticipated
exceptions (``QueryTimeout``, a corrupt cache entry's ``OSError``) are
caught, and anything broad must re-raise.

Flags

* ``except:`` — always (it even catches ``KeyboardInterrupt``);
* ``except Exception`` / ``except BaseException`` (alone or in a
  tuple) whose handler body contains no ``raise`` — the handler
  swallows everything.

Handlers for specific exception types are never flagged, whatever
their body does: catching-and-degrading a *named* failure mode is the
sanctioned pattern (see ``ArtifactCache.get``).
"""

import ast

from ..core import Rule, dotted_name, resolve_dotted

_BROAD = frozenset({
    "Exception",
    "BaseException",
    "builtins.Exception",
    "builtins.BaseException",
})


def _broad_types(handler, aliases):
    """Broad exception-type nodes named by an ExceptHandler."""
    node = handler.type
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in types:
        name = dotted_name(item)
        if name is not None and resolve_dotted(name, aliases) in _BROAD:
            yield item


class ExceptionRule(Rule):
    name = "EXC001"
    scope = "file"

    def check_file(self, unit):
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield unit.finding(
                    self.name, node,
                    "bare 'except:' catches everything including "
                    "KeyboardInterrupt; name the exceptions (or catch "
                    "Exception and re-raise)",
                )
                continue
            broad = list(_broad_types(node, unit.aliases))
            if not broad:
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue
            yield unit.finding(
                self.name, broad[0],
                "broad except swallows every error (no raise in the "
                "handler); catch the specific exceptions or re-raise",
            )
