import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.errors import NotPositiveError, NotSelfAdjointError
from wcelab.measure import coarsest_partition, make_partition, make_space
from wcelab.opalgebra import (
    WeightedOperator,
    hermitian_eig,
    kernel_projection,
    op_deviations,
    operator_norm,
    polar_oracle,
    positive_sqrt,
    spectral_norms,
    weighted_adjoint,
)

from conftest import deviation, e_operator, eig_calc, random_complex


def identity(space):
    return WeightedOperator(space, np.eye(space.n))


def zero(space):
    return WeightedOperator(space, np.zeros((space.n, space.n)))


def diagonal(space, values):
    """Multiplication by values: f -> values * f."""
    return WeightedOperator(space, np.diag(np.asarray(values, dtype=complex)))


def random_operator(rng, space):
    n = space.n
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return WeightedOperator(space, m)


def random_self_adjoint(rng, space):
    a = random_operator(rng, space)
    return WeightedOperator(space, 0.5 * (a.matrix + weighted_adjoint(a).matrix))


def power_iteration_norm(a, iters=2000, seed=3):
    """Independent largest-singular-value estimate: power iteration on
    the weighted Gram operator A* A."""
    rng = np.random.default_rng(seed)
    gram = weighted_adjoint(a) @ a
    v = rng.normal(size=a.space.n) + 1j * rng.normal(size=a.space.n)
    for _ in range(iters):
        v = gram.matrix @ v
        norm = a.space.norm(v)
        if norm == 0.0:
            return 0.0
        v = v / norm
    return float(np.sqrt(np.real(a.space.inner(gram.matrix @ v, v))))


@pytest.fixture
def space():
    return make_space([1.0, 3.0, 0.5, 2.0])


class TestWeightedAdjoint:
    def test_identity(self, space):
        eye = identity(space)
        np.testing.assert_array_equal(weighted_adjoint(eye).matrix, eye.matrix)

    def test_multiplication_conjugates(self, space, rng):
        phi = random_complex(rng, space.n)
        m = diagonal(space, phi)
        np.testing.assert_allclose(
            weighted_adjoint(m).matrix, np.diag(np.conj(phi))
        )

    def test_cond_exp_is_self_adjoint(self, space):
        p = make_partition(space, [[0, 2], [1, 3]])
        e = e_operator(p)
        assert operator_norm(weighted_adjoint(e) - e) < 1e-14

    def test_defining_identity(self, space, rng):
        a = random_operator(rng, space)
        adj = weighted_adjoint(a)
        for _ in range(5):
            f = random_complex(rng, space.n)
            g = random_complex(rng, space.n)
            lhs = space.inner(a.matrix @ f, g)
            rhs = space.inner(f, adj.matrix @ g)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_involution(self, space, rng):
        # Exact as a matrix identity; floating point leaves a few ulps
        # from the weight rescaling.
        a = random_operator(rng, space)
        np.testing.assert_allclose(
            weighted_adjoint(weighted_adjoint(a)).matrix, a.matrix,
            rtol=1e-13, atol=0.0,
        )


class TestOperatorNorm:
    def test_identity(self, space):
        assert operator_norm(identity(space)) == pytest.approx(1.0)

    def test_zero(self, space):
        assert operator_norm(zero(space)) == 0.0

    def test_diagonal(self):
        # Multiplication by (2, -3) has norm max|phi| = 3; confirmed by
        # power iteration.
        sp = make_space([1.0, 5.0])
        m = diagonal(sp, np.array([2.0, -3.0]))
        assert operator_norm(m) == pytest.approx(3.0)
        assert power_iteration_norm(m) == pytest.approx(3.0, rel=1e-6)

    def test_power_iteration_agreement(self, space, rng):
        a = random_operator(rng, space)
        assert operator_norm(a) == pytest.approx(power_iteration_norm(a), rel=1e-5)

    def test_cstar_identity(self, space, rng):
        for _ in range(5):
            a = random_operator(rng, space)
            lhs = operator_norm(weighted_adjoint(a) @ a)
            assert lhs == pytest.approx(operator_norm(a) ** 2, rel=1e-10)

    def test_averaging_projection_has_weighted_norm_one(self):
        # Pins the weighting convention: in the Euclidean norm this matrix
        # has largest singular value sqrt(1.25).
        sp = make_space([1.0, 3.0])
        e = e_operator(coarsest_partition(sp))
        assert operator_norm(e) == pytest.approx(1.0)
        assert np.linalg.svd(e.matrix, compute_uv=False)[0] == pytest.approx(
            np.sqrt(1.25)
        )


class TestHermitianEig:
    def test_identity_spectrum(self, space):
        es = hermitian_eig(identity(space))
        np.testing.assert_allclose(es.values, np.ones(space.n))

    def test_projection_spectrum_counts(self):
        # The averaging projection onto k blocks has eigenvalue 1 with
        # multiplicity k and 0 with multiplicity n - k; cross-checked by
        # the trace.
        sp = make_space([1.0, 2.0, 0.5, 3.0, 1.5])
        p = make_partition(sp, [[0, 1], [2, 4], [3]])
        e = e_operator(p)
        es = hermitian_eig(e)
        ones = np.sum(np.abs(es.values - 1) < 1e-10)
        zeros = np.sum(np.abs(es.values) < 1e-10)
        assert ones == 3 and zeros == 2
        assert np.trace(e.matrix).real == pytest.approx(3.0)

    def test_diagonal(self):
        sp = make_space([1.0, 4.0])
        m = diagonal(sp, np.array([2.0, 5.0]))
        es = hermitian_eig(m)
        np.testing.assert_allclose(es.values, [2.0, 5.0])

    @pytest.mark.parametrize("n", [4, 48])
    def test_residual_and_orthonormality(self, n, rng):
        sp = make_space(rng.uniform(0.1, 10.0, n))
        a = random_self_adjoint(rng, sp)
        es = hermitian_eig(a)
        # Eigenvectors as columns, orthonormal in the weighted inner product.
        vectors = es.basis / sp.sqrt_weights[:, None]
        norm_a = operator_norm(a)
        for k in range(n):
            v = vectors[:, k]
            residual = sp.norm(a.matrix @ v - es.values[k] * v)
            assert residual <= 1e-11 * norm_a
        gram = np.array([
            [sp.inner(vectors[:, i], vectors[:, j]) for j in range(n)]
            for i in range(n)
        ])
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-11)

    def test_rejects_asymmetric(self, space, rng):
        a = random_operator(rng, space)
        with pytest.raises(NotSelfAdjointError):
            hermitian_eig(a)


class TestPositiveSqrt:
    def test_identity(self, space):
        root = positive_sqrt(identity(space))
        np.testing.assert_allclose(root.matrix, np.eye(space.n), atol=1e-14)

    def test_scaled_identity(self, space):
        root = positive_sqrt(WeightedOperator(space, 4.0 * np.eye(space.n)))
        np.testing.assert_allclose(root.matrix, 2.0 * np.eye(space.n), atol=1e-13)

    def test_projection_is_own_root(self, space):
        p = make_partition(space, [[0, 1, 3], [2]])
        e = e_operator(p)
        root = positive_sqrt(e)
        assert deviation(root, e) < 1e-12
        assert deviation(root @ root, e) < 1e-12

    def test_squares_back(self, space, rng):
        b = random_operator(rng, space)
        a = weighted_adjoint(b) @ b
        root = positive_sqrt(a)
        assert deviation(root @ root, a) < 1e-12
        assert operator_norm(root @ a - a @ root) < 1e-10 * (1 + operator_norm(a))

    def test_rejects_negative(self, space):
        with pytest.raises(NotPositiveError):
            positive_sqrt(WeightedOperator(space, -np.eye(space.n)))


class TestPolarOracle:
    def test_identity(self, space):
        u, p = polar_oracle(identity(space))
        np.testing.assert_allclose(u.matrix, np.eye(space.n), atol=1e-13)
        np.testing.assert_allclose(p.matrix, np.eye(space.n), atol=1e-13)

    def test_scaled_projection(self, space):
        # A = 3E: A*A = 9E, so P = 3E and U = E.
        part = make_partition(space, [[0, 2], [1, 3]])
        e = e_operator(part)
        three_e = WeightedOperator(space, 3.0 * e.matrix)
        u, p = polar_oracle(three_e)
        assert deviation(p, three_e) < 1e-12
        assert deviation(u, e) < 1e-12

    def test_zero(self, space):
        u, p = polar_oracle(zero(space))
        assert operator_norm(u) == 0.0
        assert operator_norm(p) == 0.0

    def test_factorization_and_kernels(self, space, rng):
        for _ in range(5):
            a = random_operator(rng, space)
            u, p = polar_oracle(a)
            assert deviation(u @ p, a) < 1e-12
            assert deviation(p, positive_sqrt(weighted_adjoint(a) @ a)) < 1e-11
            uu = weighted_adjoint(u) @ u
            assert operator_norm(uu @ uu - uu) < 1e-12
            ker_u = kernel_projection(u)
            ker_p = kernel_projection(p)
            ker_a = kernel_projection(a)
            assert deviation(ker_u, ker_p) < 1e-10
            assert deviation(ker_p, ker_a) < 1e-10


class TestFuncCalcOracle:
    def test_identity_function(self, space, rng):
        a = random_self_adjoint(rng, space)
        assert deviation(eig_calc(a, lambda t: t), a) < 1e-13

    def test_constant_one(self, space, rng):
        a = random_self_adjoint(rng, space)
        out = eig_calc(a, lambda t: 1.0)
        np.testing.assert_allclose(out.matrix, np.eye(space.n), atol=1e-12)

    def test_square_on_diagonal(self):
        sp = make_space([1.0, 2.0])
        m = diagonal(sp, np.array([2.0, 5.0]))
        out = eig_calc(m, lambda t: t * t)
        np.testing.assert_allclose(out.matrix, np.diag([4.0, 25.0]), atol=1e-12)
        assert deviation(out, m @ m) < 1e-14

    def test_multiplicative_on_polynomials(self, space, rng):
        a = random_self_adjoint(rng, space)
        assert deviation(eig_calc(a, lambda t: t * t), a @ a) < 1e-12


class TestKernelProjection:
    def test_identity_has_trivial_kernel(self, space):
        k = kernel_projection(identity(space))
        assert operator_norm(k) == pytest.approx(0.0, abs=1e-14)

    def test_zero_has_full_kernel(self, space):
        k = kernel_projection(zero(space))
        np.testing.assert_allclose(k.matrix, np.eye(space.n), atol=1e-14)

    def test_projection_complement(self, space):
        # ker E is the complement of the blockwise-constant functions, so
        # the kernel projection must be I - E.
        p = make_partition(space, [[0, 1], [2, 3]])
        e = e_operator(p)
        k = kernel_projection(e)
        eye = identity(space)
        assert deviation(WeightedOperator(space, k.matrix + e.matrix), eye) < 1e-12



@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 8),
       st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3]))
def test_op_deviations_is_one_sided(seed, k, n, gap):
    # op_deviations is ||a - b|| / (1 + ||b||), b the reference, and is
    # never below the symmetric ||a - b|| / (1 + max(||a||, ||b||)).
    rng = np.random.default_rng(seed)
    space = make_space(rng.uniform(0.1, 10.0, n))

    def stack():
        scale = 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
        return scale * (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))

    b = stack()
    a = b + gap * stack()
    if seed % 5 == 0:
        b[0] = 0.0
    dev = op_deviations(space, a, b)

    def norm(m):
        return operator_norm(WeightedOperator(space, m))

    for i in range(k):
        diff, na, nb = norm(a[i] - b[i]), norm(a[i]), norm(b[i])
        assert dev[i] == pytest.approx(diff / (1.0 + nb), rel=1e-12, abs=0.0)
        assert dev[i] >= diff / (1.0 + max(na, nb)) * (1.0 - 1e-12)
    held = np.array([norm(m) for m in b])
    np.testing.assert_allclose(op_deviations(space, a, b, held), dev, rtol=1e-12, atol=0.0)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6),
       st.one_of(st.integers(1, 24), st.just(64)), st.floats(0.0, 1.0))
def test_spectral_norms_match_numpy_norm_bit_for_bit(seed, k, n, zero_share):
    # Random complex stacks with exact-zero slices mixed in: the kernel's
    # norms are np.linalg.norm's, bit for bit, zero slices included.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8, 8, (k, 1, 1))
    stack = scale * (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
    stack[rng.random(k) < zero_share] = 0.0
    expected = np.linalg.norm(stack, 2, axis=(1, 2))
    np.testing.assert_array_equal(spectral_norms(stack), expected)
    for m, norm in zip(stack, expected):
        assert spectral_norms(m) == norm


def test_zero_slices_reach_no_svd(monkeypatch):
    svd_slices = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        svd_slices.append(np.asarray(a).reshape(-1, *a.shape[-2:]).any(axis=(1, 2)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 4, 4)) + 0j
    stack[[1, 3]] = 0.0
    norms = spectral_norms(stack)
    assert norms[1] == norms[3] == 0.0 and np.all(norms[[0, 2, 4]] > 0.0)
    # One SVD call, over the three nonzero slices only.
    assert len(svd_slices) == 1 and svd_slices[0].tolist() == [True] * 3
    # An all-zero stack and the zero operator take no SVD at all.
    assert spectral_norms(np.zeros((3, 4, 4), dtype=complex)).tolist() == [0.0] * 3
    space = make_space([1.0, 2.0, 0.5])
    assert operator_norm(zero(space)) == 0.0
    assert len(svd_slices) == 1
