"""Tests of the REPRO_* knob registry (repro.common.knobs).

The registry is the single sanctioned accessor for ``REPRO_*``
environment variables (the ``KNB001`` lint rule enforces that); these
tests pin its semantics — declaration validation, idempotent
re-registration, ``text`` parsing — and close the knob contract from
the other side: the registered set is exactly ``EXPECTED_KNOBS`` (so a
new knob must be named here), and every registered knob has a row in
``docs/cli.md``.
"""

from pathlib import Path

import pytest

from repro.common import knobs

CLI_DOC = Path(__file__).resolve().parents[1] / "docs" / "cli.md"


EXPECTED_KNOBS = {
    # runtime
    "REPRO_JOBS": "int",
    "REPRO_CACHE_DIR": "str",
    # bench scale
    "REPRO_SCALE": "float",
    "REPRO_WORKLOAD_SIZE": "int",
    "REPRO_TIMEOUT": "float",
    "REPRO_ABLATION_SCALE": "float",
    "REPRO_ABLATION_WORKLOAD": "int",
    # tuning server
    "REPRO_SERVER_HOST": "str",
    "REPRO_SERVER_PORT": "int",
    "REPRO_SERVER_WORKERS": "int",
    "REPRO_SERVER_QUEUE": "int",
    "REPRO_SERVER_MAX_SESSIONS": "int",
    "REPRO_SERVER_SESSION_TTL": "float",
}


def test_every_expected_knob_is_registered_with_its_kind():
    registered = {k.name: k.kind for k in knobs.registered()}
    assert registered == EXPECTED_KNOBS


def test_every_registered_knob_is_documented():
    documented = CLI_DOC.read_text(encoding="utf-8")
    missing = [k.name for k in knobs.registered()
               if f"`{k.name}`" not in documented]
    assert not missing, f"no docs/cli.md row for {missing}"


def test_registered_is_sorted_and_carries_descriptions():
    names = [k.name for k in knobs.registered()]
    assert names == sorted(names)
    for knob in knobs.registered():
        assert knob.description, f"{knob.name} has no description"


def test_register_rejects_bad_names():
    with pytest.raises(ValueError):
        knobs.register("NOT_A_KNOB")
    with pytest.raises(ValueError):
        knobs.register("repro_lowercase")


def test_register_is_idempotent_for_identical_declarations():
    knob = knobs.get("REPRO_JOBS")
    again = knobs.register(
        "REPRO_JOBS", kind=knob.kind, default=knob.default,
        description=knob.description,
    )
    assert again is knobs.get("REPRO_JOBS")


def test_register_rejects_conflicting_redeclaration():
    with pytest.raises(ValueError):
        knobs.register("REPRO_JOBS", kind="float")


def test_text_returns_default_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert knobs.text("REPRO_SCALE") is None
    assert knobs.text("REPRO_SCALE", "1.0") == "1.0"


def test_text_returns_raw_environment_value(monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOAD_SIZE", "12")
    assert knobs.text("REPRO_WORKLOAD_SIZE", "100") == "12"


def test_text_rejects_unregistered_names():
    with pytest.raises(KeyError):
        knobs.text("REPRO_NOT_REGISTERED")


def test_is_registered():
    assert knobs.is_registered("REPRO_JOBS")
    assert not knobs.is_registered("REPRO_UNHEARD_OF")


def test_to_json_shape():
    payload = knobs.get("REPRO_SERVER_PORT").to_json()
    assert payload["name"] == "REPRO_SERVER_PORT"
    assert payload["kind"] == "int"


def test_server_knobs_cover_the_documented_surface():
    # One assertion per server knob keeps each name test-visible.
    assert knobs.get("REPRO_SERVER_HOST").default == "127.0.0.1"
    assert knobs.get("REPRO_SERVER_PORT").default == 8451
    assert knobs.get("REPRO_SERVER_WORKERS").default == 2
    assert knobs.get("REPRO_SERVER_QUEUE").default == 8
    assert knobs.get("REPRO_SERVER_MAX_SESSIONS").default == 8
    assert knobs.get("REPRO_SERVER_SESSION_TTL").default == 3600.0


def test_scale_knobs_defaults():
    assert knobs.get("REPRO_ABLATION_SCALE").default == 0.25
    assert knobs.get("REPRO_ABLATION_WORKLOAD").default == 25
    assert knobs.get("REPRO_TIMEOUT").default == 1800.0
    assert knobs.get("REPRO_CACHE_DIR").default is None
