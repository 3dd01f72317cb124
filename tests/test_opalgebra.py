import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.checks import calculus_test_functions
from wcelab.condexp import cond_exp_values
from wcelab.measure import FiniteMeasureSpace, Partition
from wcelab.opalgebra import (SvdOracle, frame_norms, op_deviations, singular_values,
                              spectral_norms)

from conftest import (
    adjoint,
    coarsest_partition,
    deviation,
    frame_matrices,
    inner,
    kernel_projection,
    l2_norm,
    norm,
    point_matrix,
    psd_calc,
    psd_root,
    random_complex,
)


def random_operator(rng, space):
    n = space.n
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def eig_calc(a, f):
    """f(a) for a self-adjoint operator matrix and a scalar function, from
    a fresh np.linalg.eigh: a reference independent of the SVD oracle."""
    values, basis = np.linalg.eigh(a)
    return (basis * np.array([f(float(v)) for v in values])) @ basis.conj().T


def gram_calcs(b, f):
    """(f(b* b), f(b b*)): the dense matrices of the factors the SVD oracle
    of b hands out."""
    oracle = SvdOracle(b)
    values = np.array([[f(v) for v in oracle.squares().tolist()]], dtype=complex)
    f0 = np.array([complex(f(0.0))])
    return tuple(frame_matrices(*oracle.calc_frames(values, f0))[:, 0])


def power_iteration_norm(space, a, iters=2000, seed=3):
    """Independent largest-singular-value estimate: power iteration on the
    Gram operator A* A acting on point values, with the weighted inner
    product."""
    rng = np.random.default_rng(seed)
    gram = point_matrix(space, adjoint(a) @ a)
    v = rng.normal(size=space.n) + 1j * rng.normal(size=space.n)
    for _ in range(iters):
        v = gram @ v
        size = l2_norm(space, v)
        if size == 0.0:
            return 0.0
        v = v / size
    return float(np.sqrt(np.real(inner(space, gram @ v, v))))


@pytest.fixture
def space():
    return FiniteMeasureSpace([1.0, 3.0, 0.5, 2.0])


class TestWeightedAdjoint:
    """In the orthonormal basis the weighted adjoint is the conjugate
    transpose: on point functions it satisfies <A f, g>_mu = <f, A* g>_mu."""

    def test_identity(self, space):
        eye = np.eye(space.n)
        np.testing.assert_array_equal(adjoint(eye), eye)
        np.testing.assert_allclose(point_matrix(space, adjoint(eye)), eye,
                                   rtol=1e-15, atol=0.0)

    def test_multiplication_conjugates(self, space, rng):
        # Multiplication operators are diagonal in both frames.
        phi = random_complex(rng, space.n)
        np.testing.assert_allclose(point_matrix(space, adjoint(np.diag(phi))),
                                   np.diag(np.conj(phi)), rtol=1e-15, atol=0.0)

    def test_cond_exp_is_self_adjoint(self, space, rng):
        p = Partition(space, [[0, 2], [1, 3]])
        e = p.cond_exp_matrix
        np.testing.assert_array_equal(adjoint(e), e)
        f, g = random_complex(rng, space.n), random_complex(rng, space.n)
        lhs = inner(space, cond_exp_values(p, f), g)
        assert abs(lhs - inner(space, f, cond_exp_values(p, g))) < 1e-13 * (1 + abs(lhs))

    def test_defining_identity(self, space, rng):
        a = random_operator(rng, space)
        a_pt, adj_pt = point_matrix(space, a), point_matrix(space, adjoint(a))
        for _ in range(5):
            f = random_complex(rng, space.n)
            g = random_complex(rng, space.n)
            lhs = inner(space, a_pt @ f, g)
            rhs = inner(space, f, adj_pt @ g)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_defining_identity_at_extreme_weight_spread(self, rng):
        # Weights 1e-300 and 1e300: the ratio of two weights, which the
        # adjoint on point values carries, is out of float range, yet the
        # frame matrices hold no such ratio.
        sp = FiniteMeasureSpace([1e-300, 1e300, 1.0])
        a = random_operator(rng, sp)
        a_pt, adj_pt = point_matrix(sp, a), point_matrix(sp, adjoint(a))
        for _ in range(5):
            f = random_complex(rng, sp.n) / sp.sqrt_weights
            g = random_complex(rng, sp.n) / sp.sqrt_weights
            lhs = inner(sp, a_pt @ f, g)
            rhs = inner(sp, f, adj_pt @ g)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_involution(self, space, rng):
        # Exact: the frame carries no weight rescaling.
        a = random_operator(rng, space)
        np.testing.assert_array_equal(adjoint(adjoint(a)), a)


class TestOperatorNorm:
    def test_identity(self, space):
        assert norm(np.eye(space.n)) == pytest.approx(1.0)

    def test_zero(self, space):
        assert norm(np.zeros((space.n, space.n))) == 0.0

    def test_diagonal(self):
        # Multiplication by (2, -3) has norm max|phi| = 3; confirmed by
        # power iteration.
        sp = FiniteMeasureSpace([1.0, 5.0])
        m = np.diag([2.0, -3.0])
        assert norm(m) == pytest.approx(3.0)
        assert power_iteration_norm(sp, m) == pytest.approx(3.0, rel=1e-6)

    def test_power_iteration_agreement(self, space, rng):
        a = random_operator(rng, space)
        assert norm(a) == pytest.approx(power_iteration_norm(space, a), rel=1e-5)

    def test_cstar_identity(self, space, rng):
        for _ in range(5):
            a = random_operator(rng, space)
            assert norm(adjoint(a) @ a) == pytest.approx(norm(a) ** 2, rel=1e-10)

    def test_averaging_projection_has_weighted_norm_one(self):
        # Pins the weighting convention: the matrix on point values has
        # Euclidean largest singular value sqrt(1.25), the frame matrix 1.
        sp = FiniteMeasureSpace([1.0, 3.0])
        e = coarsest_partition(sp).cond_exp_matrix
        assert norm(e) == pytest.approx(1.0)
        assert power_iteration_norm(sp, e) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.svd(point_matrix(sp, e), compute_uv=False)[0] == pytest.approx(
            np.sqrt(1.25)
        )


class TestHermitianEig:
    """The spectrum of a* a and a a* off the kernel (squares()) on the
    kept columns of R and of L, read off the SVD of a."""

    def test_identity_spectrum(self, space):
        np.testing.assert_allclose(SvdOracle(np.eye(space.n)).squares(), np.ones(space.n))

    def test_projection_spectrum_counts(self):
        # The averaging projection onto k blocks is its own Gram product:
        # eigenvalue 1 with multiplicity k, the kept squares, and 0 with
        # multiplicity n - k, the kernel; cross-checked by the trace.
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5, 3.0, 1.5])
        p = Partition(sp, [[0, 1], [2, 4], [3]])
        e = p.cond_exp_matrix
        oracle = SvdOracle(e)
        values = oracle.squares()
        assert values.size == 3 and np.all(np.abs(values - 1) < 1e-10)
        assert np.sum(~oracle.keep) == 2
        assert np.trace(e).real == pytest.approx(3.0)

    def test_diagonal(self):
        np.testing.assert_allclose(SvdOracle(np.diag([2.0, 5.0])).squares(), [25.0, 4.0])

    @pytest.mark.parametrize("n", [4, 48])
    def test_residual_and_orthonormality(self, n, rng):
        sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, n))
        b = random_operator(rng, sp)
        oracle = SvdOracle(b)
        values = oracle.squares()
        assert np.all(np.diff(values) <= 0.0)
        for a, basis in ((adjoint(b) @ b, adjoint(oracle.right_h)),
                         (b @ adjoint(b), oracle.left)):
            # Eigenvectors as columns, orthonormal in the weighted inner
            # product.
            vectors = basis / sp.sqrt_weights[:, None]
            norm_a = norm(a)
            a_pt = point_matrix(sp, a)
            for k in range(n):
                v = vectors[:, k]
                residual = l2_norm(sp, a_pt @ v - values[k] * v)
                assert residual <= 1e-11 * norm_a
            gram = np.array([
                [inner(sp, vectors[:, i], vectors[:, j]) for j in range(n)]
                for i in range(n)
            ])
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-11)

    def test_overflowing_gram_product_is_an_error(self):
        # a is finite, but sigma^2, the spectrum of a* a, is not.
        oracle = SvdOracle(np.diag([1e160, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="operator entries must be finite"):
                oracle.squares()


class TestPositiveSqrt:
    """root(): the half power of the positive polar factor."""

    def test_identity(self, space):
        root = SvdOracle(np.eye(space.n)).root()
        np.testing.assert_allclose(root, np.eye(space.n), atol=1e-14)

    def test_scaled_identity(self, space):
        root = SvdOracle(4.0 * np.eye(space.n)).root()
        np.testing.assert_allclose(root, 2.0 * np.eye(space.n), atol=1e-13)

    def test_projection_is_own_root(self, space):
        p = Partition(space, [[0, 1, 3], [2]])
        e = p.cond_exp_matrix
        root = SvdOracle(e).root()
        assert deviation(root, e) < 1e-12
        assert deviation(root @ root, e) < 1e-12

    def test_squares_back(self, space, rng):
        b = random_operator(rng, space)
        a = adjoint(b) @ b
        oracle = SvdOracle(b)
        root = oracle.root()
        p = oracle.gram_calc(oracle.sigma[oracle.keep])
        assert deviation(root @ root, p) < 1e-12
        assert deviation(p @ p, a) < 1e-12
        assert norm(root @ a - a @ root) < 1e-10 * (1 + norm(a))


def polar_pair(a):
    """The SVD polar factor of a and the positive factor R_k diag(sigma_k)
    R_k* of the same SVD."""
    oracle = SvdOracle(a)
    return oracle.polar(), oracle.gram_calc(oracle.sigma[oracle.keep])


class TestPolarOracle:
    def test_identity(self, space):
        u, p = polar_pair(np.eye(space.n))
        np.testing.assert_allclose(u, np.eye(space.n), atol=1e-13)
        np.testing.assert_allclose(p, np.eye(space.n), atol=1e-13)

    def test_scaled_projection(self, space):
        # A = 3E: A*A = 9E, so P = 3E and U = E.
        part = Partition(space, [[0, 2], [1, 3]])
        e = part.cond_exp_matrix
        three_e = 3.0 * e
        u, p = polar_pair(three_e)
        assert deviation(p, three_e) < 1e-12
        assert deviation(u, e) < 1e-12

    def test_zero(self, space):
        oracle = SvdOracle(np.zeros((space.n, space.n)))
        u, p = polar_pair(np.zeros((space.n, space.n)))
        assert oracle.norm == 0.0
        assert norm(u) == 0.0
        assert norm(p) == 0.0
        assert norm(oracle.root()) == 0.0

    def test_factorization_and_kernels(self, space, rng):
        for _ in range(5):
            a = random_operator(rng, space)
            u, p = polar_pair(a)
            assert deviation(u @ p, a) < 1e-12
            assert deviation(p, psd_root(adjoint(a) @ a)) < 1e-11
            uu = adjoint(u) @ u
            assert norm(uu @ uu - uu) < 1e-12
            ker_u = kernel_projection(u)
            ker_p = kernel_projection(p)
            ker_a = kernel_projection(a)
            assert deviation(ker_u, ker_p) < 1e-10
            assert deviation(ker_p, ker_a) < 1e-10


class TestFuncCalcOracle:
    """calc_frames: f(b* b) and f(b b*) from the SVD of b."""

    def test_identity_function(self, space, rng):
        b = random_operator(rng, space)
        gram, cogram = gram_calcs(b, lambda t: t)
        assert deviation(gram, adjoint(b) @ b) < 1e-13
        assert deviation(cogram, b @ adjoint(b)) < 1e-13

    def test_constant_one(self, space, rng):
        for out in gram_calcs(random_operator(rng, space), lambda t: 1.0):
            np.testing.assert_allclose(out, np.eye(space.n), atol=1e-12)

    def test_square_on_diagonal(self):
        m = np.diag([2.0, 5.0])
        for out in gram_calcs(m, lambda t: t * t):
            np.testing.assert_allclose(out, np.diag([16.0, 625.0]), atol=1e-12)
            assert deviation(out, np.linalg.matrix_power(m, 4)) < 1e-14

    def test_multiplicative_on_polynomials(self, space, rng):
        b = random_operator(rng, space)
        products = (adjoint(b) @ b, b @ adjoint(b))
        for out, a in zip(gram_calcs(b, lambda t: t * t), products):
            assert deviation(out, a @ a) < 1e-12

    def test_against_eigh_reference(self, space, rng):
        b = random_operator(rng, space)
        products = (adjoint(b) @ b, b @ adjoint(b))
        for f in (math.sqrt, lambda t: math.exp(-t)):
            for out, a in zip(gram_calcs(b, f), products):
                assert deviation(out, eig_calc(a, f)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_gram_calculi_of_a_stack(n):
    # a of rank n // 2 (0 at n = 1): a stack of values on the kept sigma
    # with a vector of f(0) gives, slice for slice, the calculus of each
    # row, which is an eigh reference of a* a or a a* and f(0) on the
    # kernel.
    rng = np.random.default_rng(n)
    rank = n // 2
    left, right = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                   for _ in range(2))
    a = left @ adjoint(right)
    oracle = SvdOracle(a)
    fns = [f for _, f in calculus_test_functions()]
    values = oracle.squares().tolist()
    assert len(values) == rank
    fvals = np.array([[f(v) for v in values] for f in fns], dtype=complex)
    f0 = np.array([f(0.0) for f in fns], dtype=complex)
    _, vectors, coef = oracle.calc_frames(fvals, f0)
    assert vectors.shape == (2, n, rank) and coef.shape == (len(fns), rank)
    kernels = frame_matrices(*oracle.calc_frames(np.zeros((1, rank)), np.ones(1)))[:, 0]
    for k, f in enumerate(fns):
        # The row of one function alone is the stack's row, bit for bit.
        _, one_vectors, one_coef = oracle.calc_frames(fvals[k:k + 1], f0[k:k + 1])
        assert np.array_equal(one_vectors, vectors) and np.array_equal(one_coef[0], coef[k])
    for stack, kernel, product in zip(frame_matrices(f0, vectors, coef), kernels,
                                      (adjoint(a) @ a, a @ adjoint(a))):
        assert round(np.trace(kernel).real) == n - rank
        for k, f in enumerate(fns):
            assert deviation(stack[k], psd_calc(product, f)) < 1e-10
            f_norm = float(np.abs(np.append(fvals[k], f0[k])).max())
            assert norm(stack[k] @ kernel - f(0.0) * kernel) < 1e-12 * (1.0 + f_norm)


class TestKernelProjection:
    def test_identity_has_trivial_kernel(self, space):
        k = kernel_projection(np.eye(space.n))
        assert norm(k) == pytest.approx(0.0, abs=1e-14)

    def test_zero_has_full_kernel(self, space):
        k = kernel_projection(np.zeros((space.n, space.n)))
        np.testing.assert_allclose(k, np.eye(space.n), atol=1e-14)

    def test_projection_complement(self, space):
        # ker E is the complement of the blockwise-constant functions, so
        # the kernel projection must be I - E.
        p = Partition(space, [[0, 1], [2, 3]])
        e = p.cond_exp_matrix
        k = kernel_projection(e)
        assert deviation(k + e, np.eye(space.n)) < 1e-12


def operator_of_rank(rng, n, rank):
    """A random complex n x n operator of the given rank, its nonzero
    singular values far above the rank cut."""
    left, right = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                   for _ in range(2))
    return left @ adjoint(right)


class TestKernelGap:
    """||K_a - K_b|| of the kernel projections as polar_kernels reads it:
    P_A - P_B for the kept singular vectors A of a and B of b, which span
    the kernels' complements, is [A, B] diag(1, -1) [A, B]*, read on the
    frame [A, B] without forming either projection."""

    @pytest.mark.parametrize("n", [2, 12, 64])
    def test_matches_dense_projections(self, rng, n):
        pairs = [(operator_of_rank(rng, n, ra), operator_of_rank(rng, n, rb))
                 for ra, rb in ((n // 2, n // 2), (1, 1), (n - 1, n - 1), (1, n - 1))]
        # Nearby kernels: a small gap, far from 0 and from 1.
        a = operator_of_rank(rng, n, n // 2)
        pairs.append((a, a + 1e-6 * a @ rng.normal(size=(n, n))))
        for a, b in pairs:
            kept = [SvdOracle(m).vectors[0] for m in (a, b)]
            signs = np.concatenate([np.full(k.shape[1], sign) for k, sign in zip(kept, (1, -1))])
            gap = framed_norms(np.hstack(kept), np.zeros(1), np.diag(signs)[None])[0]
            dense = norm(kernel_projection(a) - kernel_projection(b))
            assert abs(gap - dense) <= 1e-14


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.data(), st.booleans())
def test_svd_oracle_against_references(seed, n, data, real):
    # a = L_r diag(s) R_r* of rank r = 0..n, singular values well inside
    # the RANK_TOL cut, real or complex: every quantity SvdOracle reads off
    # its one SVD against np.linalg.eigh and the polar identities.
    rank = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)

    def frame():
        m = rng.normal(size=(n, n)) + (0.0 if real else 1j * rng.normal(size=(n, n)))
        return np.linalg.qr(m)[0][:, :rank]

    s = 10.0 ** rng.uniform(-3, 3) * rng.uniform(0.1, 1.0, rank)
    a = (frame() * s) @ adjoint(frame())
    oracle = SvdOracle(a)
    scale = float(s.max(initial=0.0))
    assert oracle.norm == pytest.approx(scale, rel=1e-12, abs=0.0)
    assert int(oracle.keep.sum()) == rank

    values = oracle.squares()
    calcs = frame_matrices(*oracle.calc_frames(values[None], np.zeros(1)))[:, 0]
    for product, calc in zip((adjoint(a) @ a, a @ adjoint(a)), calcs):
        # The kept squares are the top of the spectrum, 0 the rest of it.
        ref = np.linalg.eigh(product)[0]
        np.testing.assert_allclose(np.concatenate((np.zeros(n - rank), np.sort(values))), ref,
                                   rtol=0.0, atol=1e-12 * scale ** 2)
        assert norm(calc - product) <= 1e-12 * scale ** 2
    assert norm(oracle.gram_calc(values) - adjoint(a) @ a) <= 1e-12 * scale ** 2

    u, p = polar_pair(a)
    assert norm(u @ p - a) <= 1e-12 * scale
    uu = adjoint(u) @ u
    assert norm(uu @ uu - uu) <= 1e-12
    root = oracle.root()
    assert norm(root @ root - p) <= 1e-12 * scale
    assert norm(kernel_projection(a) - (np.eye(n) - uu)) <= 1e-12
    if rank == 0:
        assert oracle.norm == 0.0 and norm(u) == norm(p) == norm(root) == 0.0
        np.testing.assert_array_equal(kernel_projection(a), np.eye(n))



@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 8),
       st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3]))
def test_op_deviations_is_one_sided(seed, k, n, gap):
    # op_deviations is ||a - b|| / (1 + ||b||), b the reference, and is
    # never below the symmetric ||a - b|| / (1 + max(||a||, ||b||)).
    rng = np.random.default_rng(seed)

    def stack():
        scale = 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
        return scale * (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))

    b = stack()
    a = b + gap * stack()
    if seed % 5 == 0:
        b[0] = 0.0
    dev = op_deviations(a, b, spectral_norms(b))

    def norm2(m):
        return float(np.linalg.norm(m, 2))

    for i in range(k):
        diff, na, nb = norm2(a[i] - b[i]), norm2(a[i]), norm2(b[i])
        assert dev[i] == pytest.approx(diff / (1.0 + nb), rel=1e-12, abs=0.0)
        assert dev[i] >= diff / (1.0 + max(na, nb)) * (1.0 - 1e-12)
    held = np.array([norm2(m) for m in b])
    np.testing.assert_allclose(op_deviations(a, b, held), dev, rtol=1e-12, atol=0.0)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6),
       st.one_of(st.integers(1, 24), st.just(64)), st.floats(0.0, 1.0),
       st.booleans(), st.sampled_from([0.0, -0.0]))
def test_spectral_norms_match_numpy_norm_bit_for_bit(seed, k, n, zero_share, real, zero):
    # Random real or complex stacks with all-zero slices (of 0.0 or -0.0)
    # mixed in: the kernel's norms are np.linalg.norm's, bit for bit, zero
    # slices included.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8, 8, (k, 1, 1))
    stack = scale * rng.normal(size=(k, n, n))
    if not real:
        stack = stack + 1j * scale * rng.normal(size=(k, n, n))
    stack[rng.random(k) < zero_share] = zero
    expected = np.linalg.norm(stack, 2, axis=(1, 2))
    np.testing.assert_array_equal(spectral_norms(stack), expected)
    for m, norm in zip(stack, expected):
        assert spectral_norms(m) == norm


def dense_frame_norms(frame, shifts, cores):
    """||s_k I + F C_k F*|| from the dense n x n matrices, kept only here."""
    dense = shifts[:, None, None] * np.eye(len(frame)) + frame @ cores @ adjoint(frame)
    return np.linalg.norm(dense, 2, axis=(1, 2))


def framed_norms(frame, shifts, cores):
    """frame_norms on the R factor of frame's QR, as a caller that holds it
    passes it."""
    return frame_norms(np.linalg.qr(frame, mode="r"), frame.shape[-2], shifts, cores)


@pytest.mark.parametrize("n, width, shift", [
    (8, 3, 0.0), (8, 3, 0.7 - 0.2j),    # p < n: the complement holds |s|
    (8, 8, 0.0), (8, 8, -1.5),          # p = n: no complement
    (8, 13, 0.3j),                      # wider than n
    (8, 0, 0.0), (8, 0, 2.0),           # an empty frame: |s| alone
    (1, 1, 0.5), (1, 4, 0.0), (64, 12, 1e-3),
])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_frame_norms_match_dense_norms(n, width, shift, real):
    # Random frames and stacks of cores, general (not self-adjoint), the
    # residual shapes of func_calc among them: the norms read on the frame
    # are the dense matrices' to 1e-13 relative.
    rng = np.random.default_rng(17 * n + width)

    def draw(*shape):
        x = rng.normal(size=shape)
        return x if real else x + 1j * rng.normal(size=shape)

    frame, cores = draw(n, width), draw(4, width, width)
    shifts = np.array([shift, 0.0, -shift, 2.0 * shift]).real if real else np.array(
        [shift, 0.0, -shift, 2.0 * shift], dtype=complex)
    # One diagonal core with a cancelling pair, as closed minus oracle.
    diagonal = draw(width // 2)
    cores[1] = np.diag(np.concatenate((diagonal, -diagonal, draw(width % 2))))
    got = framed_norms(frame, shifts, cores)
    np.testing.assert_allclose(got, dense_frame_norms(frame, shifts, cores), rtol=1e-13, atol=0.0)


def test_frame_norms_of_a_stack_of_frames():
    # A (3, n, p) stack of frames with (3, m) shifts and one (m, p, p)
    # stack of cores gives, frame by frame, the norms of each frame alone.
    rng = np.random.default_rng(9)
    frames = rng.normal(size=(3, 10, 4)) + 1j * rng.normal(size=(3, 10, 4))
    cores = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    shifts = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    got = framed_norms(frames, shifts, cores)
    assert got.shape == (3, 5)
    for frame, s, norms in zip(frames, shifts, got):
        np.testing.assert_allclose(norms, framed_norms(frame, s, cores), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(norms, dense_frame_norms(frame, s, cores), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_frame_norms_of_a_rank_deficient_frame(shift):
    # F = [A, A, 0] has rank 3 in 10 columns of an n = 12 space: the QR's Z
    # is orthonormal all the same, so a residual that cancels on range A
    # reads |s| up to the rounding of the cancelled terms, and one that does
    # not reads the dense norm.
    rng = np.random.default_rng(4)
    a = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    frame = np.hstack((a, a, np.zeros((12, 4))))
    c = rng.normal(size=3)
    cancelling = np.diag(np.concatenate((c, -c, np.zeros(4))))
    cores = np.stack((cancelling, np.diag(rng.normal(size=10)).astype(complex)))
    shifts = np.array([shift, shift])
    got = framed_norms(frame, shifts, cores)
    rounding = 1e-14 * np.abs(c).max() * norm(a) ** 2
    np.testing.assert_allclose(got, dense_frame_norms(frame, shifts, cores), rtol=1e-13,
                               atol=rounding)
    assert got[0] == pytest.approx(shift, abs=rounding)


@pytest.mark.parametrize("n, width", [(8, 3), (8, 0), (2, 1)])
def test_frame_norms_hold_the_shift_off_the_frame(n, width):
    # s (I - Q Q*) for orthonormal Q: 0 on the frame, so its norm |s| is
    # on the complement alone, as f(0) on the kernel of a Gram calculus.
    rng = np.random.default_rng(n)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0][:, :width]
    shifts = np.array([1.0, -0.5j])
    cores = -shifts[:, None, None] * np.eye(width)
    np.testing.assert_allclose(framed_norms(q, shifts, cores), [1.0, 0.5], rtol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("width", [0, 3, 8])
def test_frame_norms_reject_non_finite_cores_and_shifts(bad, width):
    # A NaN or inf core or shift is no operator: the ValueError of
    # require_finite, and no numpy warning.
    rng = np.random.default_rng(width)
    frame = rng.normal(size=(8, width))
    cores = rng.normal(size=(2, width, width)).astype(complex)
    shifts = np.array([0.5, 0.0], dtype=complex)
    cases = [(cores, np.array([bad, 0.0], dtype=complex))]
    if width:
        bad_cores = cores.copy()
        bad_cores[1, 0, width - 1] = bad
        cases.append((bad_cores, shifts))
    for c, s in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="operator entries must be finite"):
                framed_norms(frame, s, c)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_only_live_slices_reach_one_svd(monkeypatch, n, dtype):
    # An all-zero slice (-0.0 included) gets exactly 0.0 without LAPACK;
    # the live slices go to one SVD, and a stack with no zero slice goes
    # to it as it is, uncopied.
    svd_inputs = []
    svd = np.linalg.svd

    def spying_svd(a, *args, **kwargs):
        svd_inputs.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spying_svd)
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, n, n)).astype(dtype)
    live = stack.copy()
    stack[1] = 0.0
    stack[3] = -0.0
    norms = spectral_norms(stack)
    assert norms[1] == norms[3] == 0.0 and np.all(norms[[0, 2, 4]] > 0.0)
    assert len(svd_inputs) == 1
    np.testing.assert_array_equal(svd_inputs[0], stack[[0, 2, 4]])

    expected = np.linalg.norm(live, 2, axis=(1, 2))
    svd_inputs.clear()
    np.testing.assert_array_equal(spectral_norms(live), expected)
    assert len(svd_inputs) == 1 and svd_inputs[0] is live

    svd_inputs.clear()
    assert spectral_norms(np.zeros((3, n, n), dtype=dtype)).tolist() == [0.0] * 3
    assert spectral_norms(np.full((n, n), -0.0, dtype=dtype)) == 0.0
    assert svd_inputs == []


@pytest.mark.parametrize("shape", [(3, 5, 5), (3, 4, 7), (6, 3)])
def test_singular_values_match_lapack(monkeypatch, shape):
    # Every singular value, largest first, bit for bit LAPACK's; a zero
    # slice gets zeros without reaching it, and spectral_norms is the
    # largest of them.
    rng = np.random.default_rng(len(shape))
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = np.linalg.svd(stack, compute_uv=False)
    np.testing.assert_array_equal(singular_values(stack), expected)
    np.testing.assert_array_equal(spectral_norms(stack), expected[..., 0])
    if stack.ndim == 3:
        stack[1] = 0.0
        sent = count_svd_inputs(monkeypatch)
        values = singular_values(stack)
        assert values[1].tolist() == [0.0] * min(shape[1:])
        np.testing.assert_array_equal(values[[0, 2]], expected[[0, 2]])
        assert [a.shape[0] for a in sent] == [2]


def count_svd_inputs(monkeypatch):
    """Record every stack np.linalg.svd is given; returns the list."""
    sent = []
    svd = np.linalg.svd

    def spying_svd(a, *args, **kwargs):
        sent.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spying_svd)
    return sent


def test_empty_matrices_have_norm_zero():
    # The Aluthge core of the zero operator is 0 x 0.
    assert spectral_norms(np.zeros((0, 0))) == 0.0
    assert spectral_norms(np.zeros((2, 0, 0), dtype=complex)).tolist() == [0.0, 0.0]
