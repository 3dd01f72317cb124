import numpy as np
import pytest

from wcelab.generator import GeneratorConfig, gen_instance
from wcelab.opalgebra import WeightedOperator, hermitian_eig, op_deviations


def random_complex(rng, n, cap=4.0):
    return rng.uniform(0.0, cap, n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def e_operator(partition):
    """The conditional expectation as an operator: the partition's cached
    matrix of E."""
    return WeightedOperator(partition.space, partition.cond_exp_matrix)


def deviation(a, b):
    """||a - b|| / (1 + ||b||) of two operators, weighted norms: the
    one-slice case of op_deviations, b the reference side."""
    assert a.space == b.space
    return float(op_deviations(a.space, a.matrix[None], b.matrix[None])[0])


def eig_calc(a, f):
    """f(a) for a self-adjoint operator and a scalar function, through the
    oracle's calculus: hermitian_eig, then EigenSystem.calc_stack."""
    es = hermitian_eig(a)
    fvals = np.array([[f(float(v)) for v in es.values]], dtype=complex)
    return WeightedOperator(a.space, es.calc_stack(fvals)[0])


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
