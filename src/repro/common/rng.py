"""Deterministic random-number helpers.

Every stochastic component (data generators, query-family constant
selection, workload sampling) takes an explicit seed so experiments are
exactly reproducible.  Child streams are derived with ``spawn`` so that
independent components never share a stream.
"""

import numpy as np


def make_rng(seed):
    """Create a numpy Generator from an integer seed or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng, label):
    """Derive an independent child generator keyed by a string label.

    The label is hashed into the child seed so that adding a new consumer
    does not perturb the streams of existing consumers.
    """
    digest = np.frombuffer(label.encode("utf-8"), dtype=np.uint8)
    salt = int(digest.sum()) + 1000003 * len(label)
    child_seed = int(rng.integers(0, 2**32 - 1)) ^ salt
    return np.random.default_rng(child_seed)


def zipf_weights(n, z):
    """Zipfian weight vector ``w_i ∝ 1 / i**z`` over ranks 1..n, normalized.

    ``z = 0`` degenerates to the uniform distribution; the paper's skewed
    TPC-H database uses ``z = 1`` (Chaudhuri & Narasayya's generator).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(z))
    return weights / weights.sum()

