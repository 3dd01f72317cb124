import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.condexp import Sandwich, cond_exp_values
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.opalgebra import RANK_TOL
from wcelab.wce import WceInstance

from conftest import (
    coarsest_partition,
    deviation,
    finest_partition,
    generated_partitions,
    inner,
    point_matrix,
    random_complex,
)


class TestCondExp:
    def test_defining_identity_two_points(self):
        # One block, mu = (1, 3), f = (4, 0): the constant c with
        # 4*1 + 0*3 = c*4 is c = 1.
        sp = FiniteMeasureSpace([1.0, 3.0])
        g = cond_exp_values(coarsest_partition(sp), np.array([4.0, 0.0]))
        np.testing.assert_allclose(g, [1, 1])

    def test_finest_is_identity(self, rng):
        sp = FiniteMeasureSpace([1.0, 2.0, 3.0])
        f = random_complex(rng, 3)
        np.testing.assert_allclose(cond_exp_values(finest_partition(sp), f), f)

    def test_preserves_constants(self):
        sp = FiniteMeasureSpace([2.0, 1.0, 5.0])
        one = np.ones(sp.n)
        np.testing.assert_allclose(cond_exp_values(coarsest_partition(sp), one), one)

    def test_block_integrals_match(self, rng):
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5, 3.0])
        p = Partition(sp, [[0, 2], [1, 3]])
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
        sp = FiniteMeasureSpace([1.0, 1.0])
        m = coarsest_partition(sp).cond_exp_matrix
        np.testing.assert_allclose(m, np.full((2, 2), 0.5))

    def test_finest_identity(self):
        sp = FiniteMeasureSpace([1.0, 3.0, 2.0])
        m = finest_partition(sp).cond_exp_matrix
        np.testing.assert_allclose(m, np.eye(3))

    def test_weighted_rows(self):
        # mu = (1, 3), one block: on point values every row is (1/4, 3/4);
        # in the orthonormal basis the entries are sqrt(mu_i mu_j) / 4.
        sp = FiniteMeasureSpace([1.0, 3.0])
        m = coarsest_partition(sp).cond_exp_matrix
        np.testing.assert_allclose(point_matrix(sp, m), [[0.25, 0.75], [0.25, 0.75]])
        r = np.sqrt(3.0) / 4
        np.testing.assert_allclose(m, [[0.25, r], [r, 0.75]])

    def test_matrix_matches_cond_exp_on_basis(self, rng):
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5, 4.0])
        p = Partition(sp, [[0, 3], [1], [2]])
        m = point_matrix(sp, p.cond_exp_matrix)
        for i in range(sp.n):
            basis = np.zeros(sp.n, dtype=complex)
            basis[i] = 1.0
            np.testing.assert_allclose(m @ basis, cond_exp_values(p, basis),
                                       atol=1e-15)

    def test_weighted_self_adjoint(self, rng):
        sp = FiniteMeasureSpace([1.0, 3.0, 2.0, 0.7])
        p = Partition(sp, [[0, 1, 3], [2]])
        m = p.cond_exp_matrix
        assert deviation(m.conj().T, m) < 1e-15
        # On point functions: <E f, g>_mu = <f, E g>_mu.
        f, g = random_complex(rng, sp.n), random_complex(rng, sp.n)
        m_pt = point_matrix(sp, m)
        lhs = inner(sp, m_pt @ f, g)
        assert abs(lhs - inner(sp, f, m_pt @ g)) < 1e-13 * (1 + abs(lhs))

    def test_idempotent_matrix(self):
        sp = FiniteMeasureSpace([1.0, 3.0, 2.0])
        m = coarsest_partition(sp).cond_exp_matrix
        assert deviation(m @ m, m) < 1e-15


def test_cond_exp_matrix_is_the_orthonormal_frame_of_e():
    # E's matrix is symmetric, and it maps sqrt(mu) f to sqrt(mu) E(f): it
    # is D^(1/2) E D^(-1/2), E in the orthonormal basis e_i / sqrt(mu_i).
    rng = np.random.default_rng(31)
    for partition in generated_partitions(30, seed0=3100):
        m = partition.cond_exp_matrix
        np.testing.assert_array_equal(m, m.T)
        s = partition.space.sqrt_weights
        for _ in range(3):
            f = random_complex(rng, partition.space.n)
            np.testing.assert_allclose(m @ (s * f), s * cond_exp_values(partition, f),
                                       rtol=1e-13, atol=1e-15 * float(np.abs(s * f).max()))


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
    # The kept mask compares the roots of aggregates like E(|u|^2) with
    # ">", which needs a real dtype.
    rng = np.random.default_rng(8)
    for partition in generated_partitions(10, seed0=800):
        sp = partition.space
        # Zero the first block so the kept set is proper when there is
        # more than one block.
        zeroed = partition.block_of == 0 if partition.block_count > 1 else False
        u = MeasurableFunction(sp, np.where(zeroed, 0.0, random_complex(rng, sp.n)))
        f = np.abs(u.values) ** 2
        assert cond_exp_values(partition, f).dtype == np.float64
        inst = WceInstance(partition, u, u)
        assert inst.rms.dtype == inst.sigma.dtype == np.float64
        ref = loop_block_means(partition, f)
        expected = np.empty(sp.n, dtype=bool)
        for k, b in enumerate(partition.blocks):
            expected[list(b)] = ref[k] > RANK_TOL * ref.max()
        np.testing.assert_array_equal(inst.kept, expected)


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
    # E M_g E = M_E(g) E and E* = E, checked against the dense products
    # and the dense conjugate transpose.
    rng = np.random.default_rng(seed)
    sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, n))
    labels = np.concatenate((np.arange(min(k, n)), rng.integers(0, min(k, n), n - min(k, n))))
    rng.shuffle(labels)
    partition = Partition(sp, [np.flatnonzero(labels == b) for b in range(min(k, n))])
    a, b = random_sandwich(rng, partition), random_sandwich(rng, partition)
    dense_a, dense_b = a.matrices(), b.matrices()
    # M_a E M_b M_c E M_d = M_{a E(b c)} E M_d.
    product = Sandwich(partition, a.left * cond_exp_values(partition, a.right * b.left), b.right)
    assert deviation(product.matrices(), dense_a @ dense_b) <= 1e-12
    # E* = E, so (M_a E M_b)* = M_conj(b) E M_conj(a): the dense adjoint.
    swapped = Sandwich(partition, np.conj(a.right), np.conj(a.left))
    assert deviation(swapped.matrices(), dense_a.conj().T) <= 1e-12


def test_sandwich_dense_is_the_scaled_cond_exp_matrix(rng):
    sp = FiniteMeasureSpace([1.0, 3.0, 2.0])
    p = Partition(sp, [[0, 2], [1]])
    s = Sandwich(p, np.array([2.0, 1j, 0.5]), np.array([1.0, 3.0, -1.0]))
    np.testing.assert_allclose(
        s.matrices(), np.diag(s.left) @ p.cond_exp_matrix @ np.diag(s.right),
        rtol=1e-15, atol=0)
    # On point values the matrix is f -> left * E(right * f).
    f = random_complex(rng, sp.n)
    np.testing.assert_allclose(point_matrix(sp, s.matrices()) @ f,
                               s.left * cond_exp_values(p, s.right * f), rtol=1e-14)


def test_sandwich_matrices_reject_overflowing_entries():
    # Entries beyond the float range raise, and numpy warns about none.
    sp = FiniteMeasureSpace([1.0, 3.0])
    p = coarsest_partition(sp)
    big = np.array([1e200, 1.0])
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="operator entries must be finite"):
            Sandwich(p, big, big).matrices()


def test_cond_exp_matrix_is_cached_and_read_only():
    p = Partition(FiniteMeasureSpace([1.0, 3.0, 2.0]), [[0, 2], [1]])
    assert p.cond_exp_matrix is p.cond_exp_matrix
    # E is a real projection: its matrix is float64, not a complex copy.
    assert p.cond_exp_matrix.dtype == np.float64
    assert not p.cond_exp_matrix.flags.writeable
    with pytest.raises(ValueError):
        p.cond_exp_matrix[0, 0] = 1.0


def per_sample_condexp_residuals(partition, rng, samples=3):
    """The property suite one sample at a time: the samples drawn as the
    check draws them (f and g, the blockwise-constant g, the shift, the
    sparsity mask), then each checked before the next, one block reduction
    per application of E."""
    space = partition.space
    w = space.weights
    first = np.unique(partition.block_of, return_index=True)[1]

    def ev(x):
        return cond_exp_values(partition, x)

    fs, gs = random_complex(rng, (2, samples, space.n))
    g_blocks = random_complex(rng, (samples, partition.block_count))[:, partition.block_of]
    shifts = rng.uniform(0.05, 0.5, samples)
    masks = rng.random((samples, space.n)) < 0.4
    res = {k: 0.0 for k in ("idempotent", "range", "module", "jensen",
                            "positive", "hoelder", "support", "selfadjoint")}
    for f, g, g_meas, shift, mask in zip(fs, gs, g_blocks, shifts, masks):
        ef = ev(f)
        scale_f = 1.0 + float(np.abs(f).max())
        res["idempotent"] = max(res["idempotent"],
                                float(np.abs(ev(ef) - ef).max()) / scale_f)
        worst_dev = float(np.abs(ef - ef[first][partition.block_of]).max())
        fix_dev = float(np.abs(ev(g_meas) - g_meas).max())
        res["range"] = max(res["range"], worst_dev / scale_f,
                           fix_dev / (1.0 + float(np.abs(g_meas).max())))
        res["module"] = max(
            res["module"],
            float(np.abs(ev(f * g_meas) - ef * g_meas).max())
            / (1.0 + float(np.abs(f).max()) * float(np.abs(g_meas).max())))
        for p in (1, 2, 4):
            left = np.abs(ef) ** p
            right = ev(np.abs(f) ** p).real
            res["jensen"] = max(res["jensen"],
                                float((left - right).max()) / (1.0 + float(right.max())))
        f_nonneg = np.abs(f).astype(float)
        ef_nonneg = ev(f_nonneg).real
        res["positive"] = max(res["positive"],
                              float(-ef_nonneg.min()) / (1.0 + float(f_nonneg.max())))
        f_pos = f_nonneg + shift
        if float(ev(f_pos).real.min()) <= 0.0:
            res["positive"] = max(res["positive"], 1.0)
        for p, q in ((2.0, 2.0), (4.0, 4.0 / 3.0)):
            left = np.abs(ev(f * g))
            right = ev(np.abs(f) ** p).real ** (1 / p) * ev(np.abs(g) ** q).real ** (1 / q)
            res["hoelder"] = max(res["hoelder"],
                                 float((left - right).max()) / (1.0 + float(right.max())))
        f_sparse = f_nonneg.copy()
        f_sparse[mask] = 0.0
        sf = set(np.flatnonzero(f_sparse != 0))
        sef = set(np.flatnonzero(ev(f_sparse) != 0))
        if not sf.issubset(sef):
            res["support"] = max(res["support"], 1.0)
        a = np.sum(ef * np.conj(g) * w)
        b = np.sum(f * np.conj(ev(g)) * w)
        res["selfadjoint"] = max(res["selfadjoint"],
                                 float(np.abs(a - b) / (1.0 + np.abs(a) + np.abs(b))))
    return res


def small_partitions():
    """Three random partitions for every n = 1..24: the coarsest, the
    finest and one in between."""
    rng = np.random.default_rng(4242)
    parts = []
    for n in range(1, 25):
        sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, n))
        labels = rng.integers(0, max(1, n // 3), n)
        middle = [np.flatnonzero(labels == b) for b in np.unique(labels)]
        parts += [coarsest_partition(sp), finest_partition(sp), Partition(sp, middle)]
    return parts


@pytest.mark.parametrize("perturbed", [False, True])
def test_stacked_condexp_matches_per_sample_reference_exactly(monkeypatch, perturbed):
    from wcelab.checks import condexp_property_residuals
    from wcelab.measure import Partition

    if perturbed:
        # Block means below 1 in magnitude become 0, so strict positivity
        # and support growth fail or hold depending on the drawn shift and
        # sparsity mask; for the true E both are 0 whatever the draw.
        means = Partition.block_means
        monkeypatch.setattr(Partition, "block_means", lambda self, values: np.where(
            np.abs(means(self, values)) < 1.0, 0.0, means(self, values)))
    for k, partition in enumerate(small_partitions()):
        for samples in (1, 3):
            stacked = condexp_property_residuals(
                partition, np.random.default_rng(k), samples)
            reference = per_sample_condexp_residuals(
                partition, np.random.default_rng(k), samples)
            assert stacked == reference, (partition.space.n, partition.block_count)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stacked_block_means_equal_row_by_row(kind):
    rng = np.random.default_rng(9)
    for partition in small_partitions():
        n = partition.space.n
        rows = rng.normal(size=(4, n)) if kind == "real" else np.stack(
            [random_complex(rng, n) for _ in range(4)])
        stacked = partition.block_means(rows)
        assert stacked.shape == (4, partition.block_count)
        for row, means in zip(rows, stacked):
            np.testing.assert_array_equal(means, partition.block_means(row))
        np.testing.assert_array_equal(
            cond_exp_values(partition, rows[None])[0],
            np.stack([cond_exp_values(partition, row) for row in rows]))
