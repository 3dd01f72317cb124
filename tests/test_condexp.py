import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.condexp import Sandwich, cond_exp_values
from wcelab.measure import (
    MeasurableFunction,
    coarsest_partition,
    finest_partition,
    make_partition,
    make_space,
)
from wcelab.opalgebra import op_deviation, weighted_adjoint
from wcelab.wce import make_instance

from conftest import e_operator, generated_partitions, random_complex


class TestCondExp:
    def test_defining_identity_two_points(self):
        # One block, mu = (1, 3), f = (4, 0): the constant c with
        # 4*1 + 0*3 = c*4 is c = 1.
        sp = make_space([1.0, 3.0])
        g = cond_exp_values(coarsest_partition(sp), np.array([4.0, 0.0]))
        np.testing.assert_allclose(g, [1, 1])

    def test_finest_is_identity(self, rng):
        sp = make_space([1.0, 2.0, 3.0])
        f = random_complex(rng, 3)
        np.testing.assert_allclose(cond_exp_values(finest_partition(sp), f), f)

    def test_preserves_constants(self):
        sp = make_space([2.0, 1.0, 5.0])
        one = np.ones(sp.n)
        np.testing.assert_allclose(cond_exp_values(coarsest_partition(sp), one), one)

    def test_block_integrals_match(self, rng):
        sp = make_space([1.0, 2.0, 0.5, 3.0])
        p = make_partition(sp, [[0, 2], [1, 3]])
        f = random_complex(rng, 4)
        ef = cond_exp_values(p, f)
        for b in p.blocks:
            idx = list(b)
            assert np.isclose(
                np.sum(f[idx] * sp.weights[idx]),
                np.sum(ef[idx] * sp.weights[idx]),
            )


class TestCondExpOperator:
    def test_uniform_two_points(self):
        sp = make_space([1.0, 1.0])
        m = e_operator(coarsest_partition(sp))
        np.testing.assert_allclose(m.matrix, np.full((2, 2), 0.5))

    def test_finest_identity(self):
        sp = make_space([1.0, 3.0, 2.0])
        m = e_operator(finest_partition(sp))
        np.testing.assert_allclose(m.matrix, np.eye(3))

    def test_weighted_rows(self):
        # mu = (1, 3), one block: every row is (1/4, 3/4).
        sp = make_space([1.0, 3.0])
        m = e_operator(coarsest_partition(sp))
        np.testing.assert_allclose(m.matrix, [[0.25, 0.75], [0.25, 0.75]])

    def test_matrix_matches_cond_exp_on_basis(self, rng):
        sp = make_space([1.0, 2.0, 0.5, 4.0])
        p = make_partition(sp, [[0, 3], [1], [2]])
        m = e_operator(p)
        for i in range(sp.n):
            basis = np.zeros(sp.n, dtype=complex)
            basis[i] = 1.0
            np.testing.assert_allclose(m.apply(basis), cond_exp_values(p, basis),
                                       atol=1e-15)

    def test_weighted_self_adjoint(self):
        sp = make_space([1.0, 3.0, 2.0, 0.7])
        p = make_partition(sp, [[0, 1, 3], [2]])
        m = e_operator(p)
        assert op_deviation(weighted_adjoint(m), m) < 1e-15

    def test_idempotent_matrix(self):
        sp = make_space([1.0, 3.0, 2.0])
        m = e_operator(coarsest_partition(sp))
        assert op_deviation(m @ m, m) < 1e-15


def test_property_suite_over_random_partitions():
    from wcelab.checks import condexp_property_residuals

    rng = np.random.default_rng(99)
    worst = {}
    for partition in generated_partitions(25, seed0=900):
        res = condexp_property_residuals(partition, rng, samples=4)
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    assert max(worst.values()) <= 1e-12, worst


def loop_block_means(partition, values):
    """Per-block loop reference for the weighted block means."""
    w = partition.space.weights
    return np.array([np.sum(values[list(b)] * w[list(b)]) / np.sum(w[list(b)])
                     for b in partition.blocks])


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_block_means_match_loop_reference(kind):
    rng = np.random.default_rng(7)
    for partition in generated_partitions(30, seed0=700):
        n = partition.space.n
        f = rng.normal(size=n) if kind == "real" else random_complex(rng, n)
        ref = loop_block_means(partition, f)
        means = partition.block_means(f)
        np.testing.assert_allclose(means, ref, rtol=1e-13, atol=1e-15)
        ef = cond_exp_values(partition, f)
        for k, b in enumerate(partition.blocks):
            np.testing.assert_allclose(ef[list(b)], ref[k], rtol=1e-13, atol=1e-15)
        assert np.iscomplexobj(means) == np.iscomplexobj(ef) == (kind == "complex")


def test_real_input_stays_real():
    # Support masks compare aggregates like E(|u|^2) with ">", which
    # needs a real dtype.
    rng = np.random.default_rng(8)
    for partition in generated_partitions(10, seed0=800):
        sp = partition.space
        # Zero the first block so the support is proper when there is
        # more than one block.
        zeroed = partition.block_of == 0 if partition.block_count > 1 else False
        u = MeasurableFunction(sp, np.where(zeroed, 0.0, random_complex(rng, sp.n)))
        f = np.abs(u.values) ** 2
        assert cond_exp_values(partition, f).dtype == np.float64
        inst = make_instance(partition, u, u)
        assert inst.eu2.dtype == np.float64
        ref = loop_block_means(partition, f)
        expected = np.empty(sp.n, dtype=bool)
        for k, b in enumerate(partition.blocks):
            expected[list(b)] = ref[k] > inst.support_tol * ref.max()
        np.testing.assert_array_equal(inst.s_mask, expected)


def random_sandwich(rng, partition):
    """M_a E M_b with complex symbols; each block of a and of b is zeroed
    with probability 1/4."""
    def symbol():
        alive = rng.random(partition.block_count) >= 0.25
        return np.where(alive[partition.block_of], random_complex(rng, partition.space.n), 0.0)

    return Sandwich(partition, symbol(), symbol())


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 24), st.integers(1, 24))
def test_sandwich_algebra_matches_dense_products(seed, n, k):
    # E M_g E = M_E(g) E and E* = E, checked against the dense products.
    rng = np.random.default_rng(seed)
    sp = make_space(rng.uniform(0.1, 10.0, n))
    labels = np.concatenate((np.arange(min(k, n)), rng.integers(0, min(k, n), n - min(k, n))))
    rng.shuffle(labels)
    partition = make_partition(sp, [np.flatnonzero(labels == b) for b in range(min(k, n))])
    a, b = random_sandwich(rng, partition), random_sandwich(rng, partition)
    dense_a, dense_b = a.dense(), b.dense()
    assert op_deviation((a @ b).dense(), dense_a @ dense_b) <= 1e-12
    assert op_deviation(a.adjoint().dense(), weighted_adjoint(dense_a)) <= 1e-12


def test_sandwich_dense_is_the_scaled_cond_exp_matrix():
    sp = make_space([1.0, 3.0, 2.0])
    p = make_partition(sp, [[0, 2], [1]])
    s = Sandwich(p, np.array([2.0, 1j, 0.5]), np.array([1.0, 3.0, -1.0]))
    np.testing.assert_allclose(
        s.dense().matrix, np.diag(s.left) @ p.cond_exp_matrix @ np.diag(s.right),
        rtol=1e-15, atol=0)


def test_cond_exp_matrix_is_cached_and_read_only():
    p = make_partition(make_space([1.0, 3.0, 2.0]), [[0, 2], [1]])
    assert p.cond_exp_matrix is p.cond_exp_matrix
    with pytest.raises(ValueError):
        p.cond_exp_matrix[0, 0] = 1.0
