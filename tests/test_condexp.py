import numpy as np
import pytest

from wcelab.condexp import cond_exp_operator, cond_exp_values
from wcelab.measure import (
    MeasurableFunction,
    coarsest_partition,
    finest_partition,
    make_partition,
    make_space,
)
from wcelab.opalgebra import op_deviation, weighted_adjoint
from wcelab.wce import make_instance

from conftest import generated_partitions, random_complex


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
        m = cond_exp_operator(coarsest_partition(sp))
        np.testing.assert_allclose(m.matrix, np.full((2, 2), 0.5))

    def test_finest_identity(self):
        sp = make_space([1.0, 3.0, 2.0])
        m = cond_exp_operator(finest_partition(sp))
        np.testing.assert_allclose(m.matrix, np.eye(3))

    def test_weighted_rows(self):
        # mu = (1, 3), one block: every row is (1/4, 3/4).
        sp = make_space([1.0, 3.0])
        m = cond_exp_operator(coarsest_partition(sp))
        np.testing.assert_allclose(m.matrix, [[0.25, 0.75], [0.25, 0.75]])

    def test_matrix_matches_cond_exp_on_basis(self, rng):
        sp = make_space([1.0, 2.0, 0.5, 4.0])
        p = make_partition(sp, [[0, 3], [1], [2]])
        m = cond_exp_operator(p)
        for i in range(sp.n):
            basis = np.zeros(sp.n, dtype=complex)
            basis[i] = 1.0
            np.testing.assert_allclose(m.apply(basis), cond_exp_values(p, basis),
                                       atol=1e-15)

    def test_weighted_self_adjoint(self):
        sp = make_space([1.0, 3.0, 2.0, 0.7])
        p = make_partition(sp, [[0, 1, 3], [2]])
        m = cond_exp_operator(p)
        assert op_deviation(weighted_adjoint(m), m) < 1e-15

    def test_idempotent_matrix(self):
        sp = make_space([1.0, 3.0, 2.0])
        m = cond_exp_operator(coarsest_partition(sp))
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
