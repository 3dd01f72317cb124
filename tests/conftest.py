import numpy as np
import pytest

from wcelab.generator import GeneratorConfig, gen_instance
from wcelab.opalgebra import WeightedOperator


def random_complex(rng, n, cap=4.0):
    return rng.uniform(0.0, cap, n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def e_operator(partition):
    """The conditional expectation as an operator: the partition's cached
    matrix of E."""
    return WeightedOperator(partition.space, partition.cond_exp_matrix)


def closed_calc(closed_fn, inst, f):
    """One function's closed calculus as an operator: the only slice of the
    stack closed_fn builds for the tuple (f,)."""
    return WeightedOperator(inst.space, closed_fn(inst, (f,))[0])


def generated_partitions(count, seed0=500, n_max=16):
    """Deterministic family of random partitions for property suites."""
    parts = []
    for s in range(seed0, seed0 + count):
        n = 2 + s % (n_max - 1)
        cfg = GeneratorConfig(seed=s, n=n, block_count=1 + (s * 31) % n)
        parts.append(gen_instance(cfg).instance.partition)
    return parts


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
