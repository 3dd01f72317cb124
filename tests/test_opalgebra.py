import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.checks import calculus_test_functions
from wcelab.condexp import cond_exp_values
from wcelab.measure import FiniteMeasureSpace, Partition
from wcelab.opalgebra import SvdOracle, max_op_deviation, op_deviations, spectral_norms

from conftest import (
    adjoint,
    coarsest_partition,
    deviation,
    inner,
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
    """(f(b* b), f(b b*)) from the SVD oracle of b."""
    oracle = SvdOracle(b)
    values = np.array([f(v) for v in oracle.squares().tolist()], dtype=complex)
    return oracle.gram_calc(values), oracle.cogram_calc(values)


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
    """The spectrum of a* a and a a* (squares()) on the columns of R and
    of L, read off the SVD of a."""

    def test_identity_spectrum(self, space):
        np.testing.assert_allclose(SvdOracle(np.eye(space.n)).squares(), np.ones(space.n))

    def test_projection_spectrum_counts(self):
        # The averaging projection onto k blocks is its own Gram product:
        # eigenvalue 1 with multiplicity k and 0 with multiplicity n - k;
        # cross-checked by the trace.
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5, 3.0, 1.5])
        p = Partition(sp, [[0, 1], [2, 4], [3]])
        e = p.cond_exp_matrix
        values = SvdOracle(e).squares()
        assert np.sum(np.abs(values - 1) < 1e-10) == 3
        assert np.sum(values == 0.0) == 2
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
        _, p = oracle.polar()
        assert deviation(root @ root, p) < 1e-12
        assert deviation(p @ p, a) < 1e-12
        assert norm(root @ a - a @ root) < 1e-10 * (1 + norm(a))


class TestPolarOracle:
    def test_identity(self, space):
        u, p = SvdOracle(np.eye(space.n)).polar()
        np.testing.assert_allclose(u, np.eye(space.n), atol=1e-13)
        np.testing.assert_allclose(p, np.eye(space.n), atol=1e-13)

    def test_scaled_projection(self, space):
        # A = 3E: A*A = 9E, so P = 3E and U = E.
        part = Partition(space, [[0, 2], [1, 3]])
        e = part.cond_exp_matrix
        three_e = 3.0 * e
        u, p = SvdOracle(three_e).polar()
        assert deviation(p, three_e) < 1e-12
        assert deviation(u, e) < 1e-12

    def test_zero(self, space):
        oracle = SvdOracle(np.zeros((space.n, space.n)))
        u, p = oracle.polar()
        assert oracle.norm == 0.0
        assert norm(u) == 0.0
        assert norm(p) == 0.0
        assert norm(oracle.root()) == 0.0

    def test_factorization_and_kernels(self, space, rng):
        for _ in range(5):
            a = random_operator(rng, space)
            u, p = SvdOracle(a).polar()
            assert deviation(u @ p, a) < 1e-12
            assert deviation(p, psd_root(adjoint(a) @ a)) < 1e-11
            uu = adjoint(u) @ u
            assert norm(uu @ uu - uu) < 1e-12
            ker_u = SvdOracle(u).kernel()
            ker_p = SvdOracle(p).kernel()
            ker_a = SvdOracle(a).kernel()
            assert deviation(ker_u, ker_p) < 1e-10
            assert deviation(ker_p, ker_a) < 1e-10


class TestFuncCalcOracle:
    """gram_calc and cogram_calc: f(b* b) and f(b b*) from the SVD of b."""

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
    # a of rank n // 2 (0 at n = 1): a stack of values on sigma gives,
    # slice for slice, the calculus of each row, which is an eigh
    # reference of a* a or a a* and f(0) on the kernel.
    rng = np.random.default_rng(n)
    rank = n // 2
    left, right = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                   for _ in range(2))
    a = left @ adjoint(right)
    oracle = SvdOracle(a)
    fns = [f for _, f in calculus_test_functions()]
    values = oracle.squares().tolist()
    fvals = np.array([[f(v) for v in values] for f in fns], dtype=complex)
    kernel_ind = (~oracle.keep).astype(float)
    for calc, product in ((oracle.gram_calc, adjoint(a) @ a),
                          (oracle.cogram_calc, a @ adjoint(a))):
        stack = calc(fvals)
        assert stack.shape == (len(fns), n, n)
        kernel = calc(kernel_ind)
        assert round(np.trace(kernel).real) == n - rank
        for k, f in enumerate(fns):
            assert np.array_equal(stack[k], calc(fvals[k]))
            assert deviation(stack[k], psd_calc(product, f)) < 1e-10
            f_norm = float(np.abs(fvals[k]).max())
            assert norm(stack[k] @ kernel - f(0.0) * kernel) < 1e-12 * (1.0 + f_norm)


class TestKernelProjection:
    def test_identity_has_trivial_kernel(self, space):
        k = SvdOracle(np.eye(space.n)).kernel()
        assert norm(k) == pytest.approx(0.0, abs=1e-14)

    def test_zero_has_full_kernel(self, space):
        k = SvdOracle(np.zeros((space.n, space.n))).kernel()
        np.testing.assert_allclose(k, np.eye(space.n), atol=1e-14)

    def test_projection_complement(self, space):
        # ker E is the complement of the blockwise-constant functions, so
        # the kernel projection must be I - E.
        p = Partition(space, [[0, 1], [2, 3]])
        e = p.cond_exp_matrix
        k = SvdOracle(e).kernel()
        assert deviation(k + e, np.eye(space.n)) < 1e-12



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
    for product, calc in ((adjoint(a) @ a, oracle.gram_calc),
                          (a @ adjoint(a), oracle.cogram_calc)):
        ref = np.linalg.eigh(product)[0]
        np.testing.assert_allclose(np.sort(values), ref, rtol=0.0, atol=1e-12 * scale ** 2)
        assert norm(calc(values) - product) <= 1e-12 * scale ** 2

    u, p = oracle.polar()
    assert norm(u @ p - a) <= 1e-12 * scale
    uu = adjoint(u) @ u
    assert norm(uu @ uu - uu) <= 1e-12
    root = oracle.root()
    assert norm(root @ root - p) <= 1e-12 * scale
    assert norm(oracle.kernel() - (np.eye(n) - uu)) <= 1e-12
    if rank == 0:
        assert oracle.norm == 0.0 and norm(u) == norm(p) == norm(root) == 0.0
        np.testing.assert_array_equal(oracle.kernel(), np.eye(n))



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
    dev = op_deviations(a, b)

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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.sampled_from([1, 2, 8, 64]),
       st.booleans(),
       st.lists(st.sampled_from(["zero", "-zero", "nan", "inf", "tie", "huge", "tiny"]),
                max_size=6))
def test_max_op_deviation_is_op_deviations_max_bit_for_bit(seed, k, n, real, kinds):
    # Random stacks with special slices mixed in: exact and -0.0 residuals,
    # NaN and inf entries, tied slices, and slices scaled by 2^1000 or
    # 2^-1000, whose squares over- or underflow. The pruned maximum is
    # op_deviations(...).max(), bit for bit, or raises what it raises.
    rng = np.random.default_rng(seed)
    shape = (k, n, n)
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
    b = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
    if not real:
        a = a + 1j * rng.normal(size=shape)
        b = b + 1j * rng.normal(size=shape)
    exponents = np.zeros(k, dtype=int)
    for kind, s in zip(kinds, rng.integers(0, k, len(kinds))):
        if kind == "zero":
            a[s] = b[s]
        elif kind == "-zero":
            a[s], b[s] = (-0.0 if real else complex(-0.0, -0.0)), 0.0
        elif kind in ("nan", "inf"):
            a[s, rng.integers(n), rng.integers(n)] = np.nan if kind == "nan" else np.inf
        elif kind == "tie":
            t = rng.integers(k)
            a[s], b[s], exponents[s] = a[t], b[t], exponents[t]
        else:
            exponents[s] = 1000 if kind == "huge" else -1000
    scale = np.ldexp(1.0, exponents)[:, None, None]
    # A complex inf entry times the real scale is inf * 0 in the imaginary
    # part: NaN there, as numpy's complex product gives it.
    with np.errstate(invalid="ignore"):
        a, b = a * scale, b * scale
    b_norms = spectral_norms(b)
    with np.errstate(invalid="ignore"):
        diff = a - b
    try:
        with np.errstate(invalid="ignore"):
            want = op_deviations(a, b, b_norms).max()
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            max_op_deviation(diff, b_norms)
        return
    with np.errstate(invalid="ignore"):
        got = max_op_deviation(diff, b_norms)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_max_op_deviation_takes_exact_norms_of_the_candidates_only(monkeypatch):
    # One dominant residual: its Frobenius bound is above the others', and
    # its exact norm is above their bounds, so it alone reaches an SVD.
    svd_inputs = []
    svd = np.linalg.svd

    def spying_svd(x, *args, **kwargs):
        svd_inputs.append(x)
        return svd(x, *args, **kwargs)

    rng = np.random.default_rng(5)
    diff = rng.normal(size=(6, 16, 16)) + 1j * rng.normal(size=(6, 16, 16))
    diff[4] *= 1e3
    b_norms = rng.uniform(0.0, 2.0, 6)
    want = op_deviations(diff, np.zeros_like(diff), b_norms).max()
    monkeypatch.setattr(np.linalg, "svd", spying_svd)
    assert max_op_deviation(diff, b_norms) == want
    assert len(svd_inputs) == 1 and np.array_equal(svd_inputs[0], diff[4])


@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_max_op_deviation_finds_a_rank_one_maximum(n, dtype):
    # A rank-one matrix has ||d|| = ||d||_F, so its bound is tight: a
    # multiple of the identity just below it in norm, but with the larger
    # bound, must not prune it.
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=(2, n)).astype(dtype)
    rank_one = np.outer(x, y)
    top = np.linalg.norm(rank_one, 2)
    diff = np.stack((np.eye(n, dtype=dtype) * (top * (1 - 1e-12)), rank_one))
    b_norms = np.zeros(2)
    assert max_op_deviation(diff, b_norms) == top == op_deviations(diff, 0 * diff, b_norms).max()


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


def test_empty_matrices_have_norm_zero():
    # The Aluthge core of the zero operator is 0 x 0.
    assert spectral_norms(np.zeros((0, 0))) == 0.0
    assert spectral_norms(np.zeros((2, 0, 0), dtype=complex)).tolist() == [0.0, 0.0]
