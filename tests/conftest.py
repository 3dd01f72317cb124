import json
import math
from pathlib import Path

import numpy as np
import pytest

from wcelab.generator import GeneratorConfig, _draw_values, gen_instance
from wcelab.instance_io import parse_instance
from wcelab.measure import MeasurableFunction, Partition
from wcelab.opalgebra import SvdOracle, op_deviations, spectral_norms
from wcelab.spectral import AvgMult
from wcelab.wce import WceInstance, closed_func_calc, closed_polar


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


def random_complex(rng, shape, cap=4.0):
    """Magnitudes in [0, cap) times uniform phases, drawn as the generator
    and the checks draw their complex values."""
    return _draw_values(rng, shape, 0.0, cap)


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
    return float(op_deviations(a[None], b[None], spectral_norms(b[None]))[0])


def kernel_projection(m):
    """The dense orthogonal projection onto ker m as SvdOracle cuts it:
    V V* for the right singular vectors V its rank cut drops (the identity
    for the zero operator)."""
    oracle = SvdOracle(m)
    v = oracle.right_h[~oracle.keep]
    return v.conj().T @ v


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
    constant (has projections)."""
    return AvgMult(u, partition, tol).projections() is not None


def frame_matrices(f0, frames, coef):
    """The dense matrices f0_k I + F diag(coef_k) F* that a calculus handed
    out as (f(0), frame F, coefficients) stands for, one per row of coef:
    (m, n, n), or (..., m, n, n) for a (..., n, K) stack of frames."""
    vectors = frames[..., None, :, :]
    eye = np.eye(frames.shape[-2])
    return (f0[:, None, None] * eye
            + (vectors * coef[:, None, :]) @ vectors.conj().swapaxes(-1, -2))


def closed_calc_factors(inst, fns):
    """The closed calculus over fns as (f(0), V, c), for frame_matrices:
    closed_func_calc's (f(0), c) on the kept sigma_B, and V the (2, n, K)
    stack of closed_polar's frames v (for T* T) and l (for T T*)."""
    v, l, sigma = closed_polar(inst)
    f0, c = closed_func_calc(sigma, fns)
    return f0, np.stack((v, l)), c


def closed_calc(inst, f):
    """One function's closed calculus, (f(T* T), f(T T*)): the dense
    matrices of the factors closed_calc_factors gives for the tuple (f,)."""
    return tuple(frame_matrices(*closed_calc_factors(inst, (f,)))[:, 0])


def closed_polar_matrices(inst):
    """The dense closed (U, |T|, |T|^(1/2)) that closed_polar's frames
    stand for: l v*, v diag(sigma) v* and v diag(sqrt(sigma)) v*."""
    v, l, sigma = closed_polar(inst)
    v_adj = v.conj().T
    return l @ v_adj, (v * sigma) @ v_adj, (v * np.sqrt(sigma)) @ v_adj


def closed_aluthge_matrix(inst):
    """The dense closed Aluthge transform |T|^(1/2) U |T|^(1/2) that
    closed_polar's frames stand for: v diag(sigma_B v_B* l_B) v*, with
    v_B* l_B = E(u_hat w_hat)_B."""
    v, l, sigma = closed_polar(inst)
    return (v * (sigma * np.einsum("ik,ik->k", v.conj(), l))) @ v.conj().T


def oracle_gram_calc(oracle, values):
    """f(a* a) = R_k diag(values) R_k* on an SvdOracle's kept right singular
    vectors, for values = f(sigma_k^2) of an f with f(0) = 0."""
    rows = oracle.right_h[oracle.keep]
    return (rows.conj().T * values) @ rows


def oracle_polar(oracle):
    """The polar factor U = L_k R_k* of an SvdOracle's a = U |a|: the
    partial isometry with ker U = ker a."""
    return oracle.left[:, oracle.keep] @ oracle.right_h[oracle.keep]


def oracle_root(oracle):
    """|a|^(1/2) = (a* a)^(1/4) from an SvdOracle: the oracle_gram_calc of
    the kept sqrt(sigma_k)."""
    return oracle_gram_calc(oracle, np.sqrt(oracle.sigma[oracle.keep]))


def pinned_record_names(workload):
    """The record names the benchmark's verdict table for workload pins
    (perfbench/expected/<workload>.json): a list kept apart from the
    checks' own RECORDS table."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
    return json.loads((path / f"{workload}.json").read_text())["record_names"]


# The edge instances of edge_instances.json, by name: the table whose
# fields tests/test_edge_instances.py describes and whose every entry it runs.
EDGE_INSTANCES = {entry["name"]: entry for entry in json.loads(
    (Path(__file__).resolve().parent / "edge_instances.json").read_text())}


def edge_file(tmp_path, name):
    """The edge table's document for name, written to tmp_path."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(EDGE_INSTANCES[name]["doc"]))
    return path


def edge_bundle(name):
    """The edge table's document for name, parsed."""
    return parse_instance(json.dumps(EDGE_INSTANCES[name]["doc"]))


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
