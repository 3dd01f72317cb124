import json
import math
from pathlib import Path

import numpy as np
import pytest

from wcelab.errors import NotNormalError
from wcelab.generator import GeneratorConfig, gen_instance
from wcelab.measure import MeasurableFunction, Partition
from wcelab.opalgebra import op_deviations, spectral_norms
from wcelab.spectral import AvgMult
from wcelab.wce import WceInstance, closed_func_calc


def finest_partition(space):
    """All singletons; the sub-algebra equals the full algebra."""
    return Partition(space, [[i] for i in range(space.n)])


def coarsest_partition(space):
    """One block; the trivial sub-algebra."""
    return Partition(space, [range(space.n)])


def constant(space, value):
    """The constant function value on space."""
    return MeasurableFunction(space, np.full(space.n, value, dtype=complex))


def inner(space, f, g):
    """Weighted inner product sum_i f_i conj(g_i) mu_i of point functions."""
    return complex(np.sum(np.asarray(f) * np.conj(g) * space.weights))


def l2_norm(space, f):
    """Weighted L2 norm of a point function."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(f)) ** 2 * space.weights)))


def perturb_nonmeasurable(instance, seed):
    """Shift u at one point of a multi-point block so it stops being
    blockwise constant; raises ValueError when every block is a singleton."""
    rng = np.random.default_rng(seed)
    wide = [b for b in instance.partition.blocks if len(b) >= 2]
    if not wide:
        raise ValueError("no block with two or more points to perturb")
    block = wide[int(rng.integers(0, len(wide)))]
    point = int(block[int(rng.integers(0, len(block)))])
    u_vals = instance.u.values.copy()
    u_vals[point] += 1.0 + rng.uniform(0.0, 1.0)
    return WceInstance(instance.partition,
                       MeasurableFunction(instance.space, u_vals), instance.w)


def random_complex(rng, n, cap=4.0):
    return rng.uniform(0.0, cap, n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def random_blockwise(rng, partition, cap=4.0):
    """A blockwise-constant symbol from one (magnitude, phase) pair per
    block, drawn one uniform call after another: the per-symbol draw
    sequence the checks' stacked draws reproduce."""
    values = []
    for _ in range(partition.block_count):
        mag = rng.uniform(0.0, cap)
        values.append(mag * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
    return np.array(values)[partition.block_of]


def point_matrix(space, m):
    """The matrix that acts on vectors of point values, for an operator
    whose matrix in the orthonormal basis e_i / sqrt(mu_i) is m (or for
    each slice of a (..., n, n) stack): D^(-1/2) m D^(1/2), D = diag(mu).
    Tests read an operator through it against the weighted inner product
    and per-point references."""
    s = space.sqrt_weights
    return m / s[:, None] * s


def norm(m):
    """Operator norm of one operator matrix: its spectral norm."""
    return float(spectral_norms(m))


def adjoint(m):
    """Adjoint of one operator matrix: its conjugate transpose."""
    return m.conj().T


def deviation(a, b):
    """||a - b|| / (1 + ||b||) of two operator matrices: the one-slice case
    of op_deviations, b the reference side."""
    return float(op_deviations(a[None], b[None])[0])


def psd_calc(a, f, snap=1e-10):
    """f(a) for a positive operator matrix and a scalar function from a
    fresh np.linalg.eigh, eigenvalues at or below snap * ||a|| taken as
    exact kernel (eigh can leave them slightly negative): a reference
    independent of the SVD oracle."""
    vals, vecs = np.linalg.eigh(a)
    vals = np.where(vals <= snap * np.abs(vals).max(initial=0.0), 0.0, vals)
    return (vecs * np.array([f(float(v)) for v in vals])) @ vecs.conj().T


def psd_root(a, snap=1e-10):
    """Positive square root of a positive operator matrix: psd_calc of
    sqrt."""
    return psd_calc(a, math.sqrt, snap)


def declared_normal(u, partition, tol=1e-8):
    """Whether E M_u's decomposition, at tol, takes u for blockwise
    constant (raises no NotNormalError)."""
    try:
        AvgMult(u, partition, tol).decomposition()
    except NotNormalError:
        return False
    return True


def closed_calc(inst, f):
    """One function's closed calculus, (f(T* T), f(T T*)): the only slice
    of each stack closed_func_calc builds for the tuple (f,)."""
    return tuple(stack[0] for stack in closed_func_calc(inst, (f,)))


def pinned_record_names(workload):
    """The record names the benchmark's verdict table for workload pins
    (perfbench/expected/<workload>.json): a list kept apart from the
    checks' own RECORDS table."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
    return json.loads((path / f"{workload}.json").read_text())["record_names"]


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
