"""The project call graph (repro.lint.callgraph): one test per edge
resolution tier — direct, import-alias, ``self.``/``cls.`` dispatch
(following bases), typed-receiver, unique-name fallback — plus the
executor-entry marking (``submit``/bound-method targets) and the
``EXTERNAL`` attribute-type guard that keeps foreign objects from
borrowing project methods."""

import ast

from repro.lint.callgraph import EXTERNAL, CallGraph
from repro.lint.core import FileUnit


def unit(rel, source):
    return FileUnit("/project/" + rel, rel, source, ast.parse(source))


def graph(*units_):
    return CallGraph(list(units_))


def edges(g, caller):
    """(callee qualname, kind) pairs out of one caller qualname."""
    info = g.functions[caller]
    return {(site.callee, site.kind) for site in info.calls
            if site.callee is not None}


# ----------------------------------------------------------------------
# Resolution tiers.


def test_direct_call_same_module():
    g = graph(unit("repro/a.py", (
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def caller():\n"
        "    return helper()\n"
    )))
    assert ("repro.a::helper", "direct") in edges(g, "repro.a::caller")


def test_import_alias_call_crosses_modules():
    g = graph(
        unit("repro/a.py", (
            "from repro import b as helpers\n"
            "\n"
            "def caller():\n"
            "    return helpers.compute()\n"
        )),
        unit("repro/b.py", (
            "def compute():\n"
            "    return 2\n"
        )),
    )
    assert ("repro.b::compute", "import") in edges(g, "repro.a::caller")


def test_from_import_of_function_resolves_via_alias():
    g = graph(
        unit("repro/a.py", (
            "from repro.b import compute\n"
            "\n"
            "def caller():\n"
            "    return compute()\n"
        )),
        unit("repro/b.py", (
            "def compute():\n"
            "    return 2\n"
        )),
    )
    assert ("repro.b::compute", "import") in edges(g, "repro.a::caller")


def test_self_dispatch_follows_base_classes():
    g = graph(unit("repro/a.py", (
        "class Base:\n"
        "    def step(self):\n"
        "        return 0\n"
        "\n"
        "class Derived(Base):\n"
        "    def run(self):\n"
        "        return self.step()\n"
    )))
    assert ("repro.a::Base.step", "self") in edges(g, "repro.a::Derived.run")


def test_typed_receiver_from_local_construction():
    g = graph(unit("repro/a.py", (
        "class Worker:\n"
        "    def work(self):\n"
        "        return 1\n"
        "\n"
        "def caller():\n"
        "    w = Worker()\n"
        "    return w.work()\n"
    )))
    assert ("repro.a::Worker.work", "typed") in edges(g, "repro.a::caller")


def test_typed_receiver_from_constructed_attribute():
    g = graph(unit("repro/a.py", (
        "class Store:\n"
        "    def lookup(self):\n"
        "        return 1\n"
        "\n"
        "class Owner:\n"
        "    def __init__(self):\n"
        "        self.store = Store()\n"
        "\n"
        "    def fetch(self):\n"
        "        return self.store.lookup()\n"
    )))
    assert g.attribute_type("repro.a", "Owner", "store") == "Store"
    assert ("repro.a::Store.lookup", "typed") in edges(g, "repro.a::Owner.fetch")


def test_unique_method_name_fallback():
    g = graph(unit("repro/a.py", (
        "class Engine:\n"
        "    def frobnicate(self):\n"
        "        return 1\n"
        "\n"
        "def caller(engine):\n"
        "    return engine.frobnicate()\n"
    )))
    assert ("repro.a::Engine.frobnicate", "unique") in edges(g, "repro.a::caller")


def test_ambiguous_method_name_is_not_resolved():
    g = graph(unit("repro/a.py", (
        "class One:\n"
        "    def run(self):\n"
        "        return 1\n"
        "\n"
        "class Two:\n"
        "    def run(self):\n"
        "        return 2\n"
        "\n"
        "def caller(thing):\n"
        "    return thing.run()\n"
    )))
    assert edges(g, "repro.a::caller") == set()


def test_external_attribute_blocks_unique_fallback():
    # self._items is an OrderedDict (not a project class): its .get must
    # NOT resolve to Registry.get even though the name is unique.
    g = graph(unit("repro/a.py", (
        "from collections import OrderedDict\n"
        "\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._items = OrderedDict()\n"
        "\n"
        "    def get(self, key):\n"
        "        return self._items.get(key)\n"
    )))
    assert g.attribute_type("repro.a", "Registry", "_items") == EXTERNAL
    assert edges(g, "repro.a::Registry.get") == set()


# ----------------------------------------------------------------------
# Executor entries and reachability.


def test_submit_of_bound_method_marks_entry():
    g = graph(unit("repro/a.py", (
        "class Job:\n"
        "    def run(self):\n"
        "        return self.finish()\n"
        "\n"
        "    def finish(self):\n"
        "        return 1\n"
        "\n"
        "def drive(pool):\n"
        "    job = Job()\n"
        "    pool.submit(job.run)\n"
    )))
    entries = {info.qualname for info in g.entries()}
    assert "repro.a::Job.run" in entries
    reachable = g.reachable_from_entries()
    assert "repro.a::Job.run" in reachable
    assert "repro.a::Job.finish" in reachable
    assert "repro.a::drive" not in reachable


def test_unsubmitted_methods_are_not_entries():
    g = graph(unit("repro/a.py", (
        "class Quiet:\n"
        "    def run(self):\n"
        "        return 1\n"
    )))
    assert {info.qualname for info in g.entries()} == set()
    assert g.reachable_from_entries() == set()


def test_submit_binding_maps_self_to_receiver():
    g = graph(unit("repro/a.py", (
        "class Job:\n"
        "    def run(self):\n"
        "        return 1\n"
        "\n"
        "def drive(pool):\n"
        "    job = Job()\n"
        "    pool.submit(job.run)\n"
    )))
    sites = [site for site in g.functions["repro.a::drive"].calls
             if site.kind == "submit"]
    assert len(sites) == 1
    assert sites[0].callee == "repro.a::Job.run"
    assert sites[0].bindings.get("self") == "job"
