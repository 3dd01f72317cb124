import math

import numpy as np
import pytest

from wcelab.checks import DEFAULT_TOL, calculus_test_functions
from wcelab.condexp import Sandwich
from wcelab.generator import GeneratorConfig, gen_instance
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.opalgebra import SvdOracle
from wcelab.wce import (
    WceInstance,
    build_operator,
    closed_aluthge,
    closed_func_calc,
    closed_polar,
    norm_formula,
    partial_isometry_criterion,
)

from conftest import (
    adjoint,
    closed_calc,
    closed_polar_matrices,
    coarsest_partition,
    constant,
    deviation,
    finest_partition,
    frame_matrices,
    kernel_projection,
    norm,
    point_matrix,
    psd_calc,
    psd_root,
    random_complex,
)


def ones_instance(weights, blocks=None):
    sp = FiniteMeasureSpace(weights)
    part = coarsest_partition(sp) if blocks is None else Partition(sp, blocks)
    one = constant(sp, 1.0)
    return WceInstance(part, one, one)


@pytest.fixture
def example_instance():
    # mu = (1, 3), one block, u = (2, 0), w = (0, 1).
    sp = FiniteMeasureSpace([1.0, 3.0])
    return WceInstance(
        coarsest_partition(sp),
        MeasurableFunction(sp, [2, 0]),
        MeasurableFunction(sp, [0, 1]),
    )


def random_instance(seed, **kwargs):
    cfg = GeneratorConfig(seed=seed, n=kwargs.pop("n", 9),
                          block_count=kwargs.pop("block_count", 3), **kwargs)
    return gen_instance(cfg).instance


def test_symbols_must_share_the_partition_space():
    # Equal weights make equal spaces; other weights, labels or a symbol on
    # another space are rejected.
    sp, same = FiniteMeasureSpace([1.0, 2.0]), FiniteMeasureSpace([1.0, 2.0])
    other = FiniteMeasureSpace([2.0, 1.0])
    one = constant(sp, 1.0)
    WceInstance(coarsest_partition(sp), one, constant(same, 2.0))
    for u, w in ((constant(other, 1.0), one), (one, constant(other, 1.0)),
                 (one, constant(FiniteMeasureSpace([1.0, 2.0], ["a", "b"]), 1.0))):
        with pytest.raises(ValueError, match="share one space"):
            WceInstance(coarsest_partition(sp), u, w)


class TestBuildOperator:
    def test_unit_symbols_give_projection(self):
        inst = ones_instance([1.0, 2.0, 0.5], blocks=[[0, 2], [1]])
        e = inst.partition.cond_exp_matrix
        assert deviation(build_operator(inst), e) < 1e-15

    def test_finest_partition_is_multiplication(self, rng):
        sp = FiniteMeasureSpace([1.0, 2.0, 3.0])
        u = MeasurableFunction(sp, random_complex(rng, 3))
        w = MeasurableFunction(sp, random_complex(rng, 3))
        inst = WceInstance(finest_partition(sp), u, w)
        np.testing.assert_allclose(
            build_operator(inst), np.diag(u.values * w.values), atol=1e-15
        )

    def test_example_matrix(self, example_instance):
        # E(u f) = 2 f0 / 4, so T f = (0, f0 / 2).
        np.testing.assert_allclose(
            point_matrix(example_instance.space, build_operator(example_instance)),
            [[0, 0], [0.5, 0]], atol=1e-15
        )

    def test_adjoint_swaps_symbols(self, rng):
        # T* f = conj(u) E(conj(w) f), i.e. the instance with conjugated
        # symbols in swapped roles.
        inst = random_instance(11)
        swapped = WceInstance(
            inst.partition,
            MeasurableFunction(inst.space, np.conj(inst.w.values)),
            MeasurableFunction(inst.space, np.conj(inst.u.values)),
        )
        assert deviation(
            adjoint(build_operator(inst)), build_operator(swapped)
        ) < 1e-13


class TestNormFormula:
    def test_projection_norm_one(self):
        inst = ones_instance([1.0, 2.0, 0.5])
        assert norm_formula(inst) == pytest.approx(1.0)

    def test_example_value(self, example_instance):
        # E(|u|^2) = 1, E(|w|^2) = 3/4.
        assert norm_formula(example_instance) == pytest.approx(math.sqrt(3) / 2)
        assert norm(build_operator(example_instance)) == pytest.approx(
            math.sqrt(3) / 2
        )

    def test_zero_weight_symbol(self):
        sp = FiniteMeasureSpace([1.0, 3.0])
        inst = WceInstance(
            coarsest_partition(sp),
            MeasurableFunction(sp, [2, 0]),
            constant(sp, 0.0),
        )
        assert norm_formula(inst) == 0.0

    def test_matches_oracle_on_random_instances(self):
        for seed in range(30, 45):
            inst = random_instance(seed, n=7 + seed % 6, block_count=1 + seed % 4)
            nf = norm_formula(inst)
            assert abs(nf - norm(build_operator(inst))) <= 1e-8 * (1 + nf)


class TestPartialIsometry:
    def test_projection_case(self):
        inst = ones_instance([1.0, 2.0, 0.5])
        assert partial_isometry_criterion(inst, DEFAULT_TOL)
        assert inst.kept.tolist() == [True] * 3

    def test_exact_unit_product(self):
        # mu = (1, 3), u = w = (2, 0): E(|u|^2) = E(|w|^2) = 1.
        sp = FiniteMeasureSpace([1.0, 3.0])
        f = MeasurableFunction(sp, [2, 0])
        inst = WceInstance(coarsest_partition(sp), f, f)
        assert partial_isometry_criterion(inst, DEFAULT_TOL)
        assert inst.kept.tolist() == [True, True]
        t = build_operator(inst)
        residual = norm(t @ adjoint(t) @ t - t)
        assert residual <= 1e-12

    def test_constant_product_sixteen(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 1.0])
        two = constant(sp, 2.0)
        inst = WceInstance(coarsest_partition(sp), two, two)
        # The product is 16 on the kept blocks, nowhere near 1.
        assert inst.kept.tolist() == [True] * 3
        assert not partial_isometry_criterion(inst, DEFAULT_TOL)
        t = build_operator(inst)
        assert norm(t @ adjoint(t) @ t - t) > 1e-2


class TestClosedFuncCalc:
    def test_identity_function_gives_gram(self, rng):
        inst = random_instance(21)
        t = build_operator(inst)
        gram = adjoint(t) @ t
        assert deviation(closed_calc(inst, lambda t_: t_)[0],
                         gram) < 1e-12

    def test_constant_one_gives_identity(self, rng):
        inst = random_instance(22)
        out = closed_calc(inst, lambda t_: 1.0)[0]
        np.testing.assert_allclose(out, np.eye(inst.space.n), atol=1e-13)

    def test_square_matches_power_formula_and_matrix(self):
        inst = random_instance(23)
        t = build_operator(inst)
        gram = adjoint(t) @ t
        closed = closed_calc(inst, lambda t_: t_ * t_)[0]
        assert deviation(closed, gram @ gram) < 1e-12
        # Power formula: conj(u) E(|w|^2)^2 E(|u|^2) E(u .)
        e = inst.partition.cond_exp_matrix
        nu, nw = inst.rms[:, inst.partition.block_of]
        coef = np.conj(inst.u.values) * nw**4 * nu**2
        direct = coef[:, None] * e * inst.u.values[None, :]
        assert deviation(closed, direct) < 1e-12

    def test_cogram_identity_and_cube(self):
        inst = random_instance(24)
        t = build_operator(inst)
        cogram = t @ adjoint(t)
        assert deviation(closed_calc(inst, lambda t_: t_)[1],
                         cogram) < 1e-12
        closed = closed_calc(inst, lambda t_: t_**3)[1]
        assert deviation(closed, cogram @ cogram @ cogram) < 1e-11

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_full_suite_against_oracle(self, seed):
        inst = random_instance(seed, zero_blocks=(seed % 2 == 0))
        t = build_operator(inst)
        gram = adjoint(t) @ t
        cogram = t @ adjoint(t)
        for name, f in calculus_test_functions():
            for closed, product in zip(closed_calc(inst, f), (gram, cogram)):
                dev = deviation(closed, psd_calc(product, f))
                assert dev < 1e-7, (name, dev)


def per_function_calc(inst, f, r):
    """One function's closed calculus built on its own: f(0) I plus the
    dense sandwich core M_d E M_r, d = (f o sigma^2 - f(0)) conj(r), r a
    unit symbol that is 0 off the kept blocks."""
    f0 = complex(f(0.0))
    fp = np.asarray([f(float(v) * float(v)) for v in inst.sigma], dtype=complex)
    core = Sandwich(inst.partition, (fp - f0) * np.conj(r), r).matrices()
    return f0 * np.eye(inst.space.n, dtype=complex) + core


def zeroed_block_instance(rng, n):
    """Random weights, blocks and complex symbols on n points; each block of
    u and of w is zeroed with probability 1/4."""
    sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, n))
    labels = rng.integers(0, rng.integers(1, n + 1), n)
    part = Partition(sp, [np.flatnonzero(labels == b) for b in np.unique(labels)])

    def symbol():
        alive = rng.random(part.block_count) >= 0.25
        return MeasurableFunction(sp, np.where(alive[part.block_of],
                                               random_complex(rng, n), 0.0))

    return WceInstance(part, symbol(), symbol())


def test_stacked_calculus_matches_per_function_reference():
    # Each function's row of the stacked factors is its factors alone, bit
    # for bit, and the factors' dense matrices are the sandwich M_d E M_r
    # plus f(0) I to rounding: E is the sum of the q_B q_B* over the blocks.
    rng = np.random.default_rng(2610)
    eps = np.finfo(float).eps
    fns = tuple(f for _, f in calculus_test_functions())
    for n in range(1, 25):
        for _ in range(3):
            inst = zeroed_block_instance(rng, n)
            kept = np.unique(inst.partition.block_of[inst.kept]).size
            f0, frames, coef = closed_func_calc(inst, fns)
            assert frames.shape == (2, n, kept) and coef.shape == (len(fns), kept)
            dense = frame_matrices(f0, frames, coef)
            for k, f in enumerate(fns):
                one_f0, one_frames, one_coef = closed_func_calc(inst, (f,))
                assert one_f0[0] == f0[k] and np.array_equal(one_frames, frames)
                assert np.array_equal(one_coef[0], coef[k])
                for stack, r in zip(dense, (inst.units[0], np.conj(inst.units[1]))):
                    reference = per_function_calc(inst, f, r)
                    scale = 1.0 + abs(f(0.0)) + float(np.abs(reference).max())
                    np.testing.assert_allclose(stack[k], reference, rtol=0,
                                               atol=8 * eps * scale)


def test_closed_calculus_evaluates_each_function_once_per_block():
    # f(T* T) and f(T T*) share one table: f(0) once and f(sigma_B^2) once
    # per kept block, 1 + K calls for K kept blocks.
    inst = random_instance(25, n=64, block_count=3)
    assert inst.kept.all()
    calls = []

    def counting(t_):
        calls.append(t_)
        return t_

    f0, frames, coef = closed_func_calc(inst, (counting,))
    assert frames.shape == (2, 64, 3) and coef.shape == (1, 3)
    assert len(calls) == 1 + inst.partition.block_count == 4


def test_stacked_calculus_rejects_non_finite_entries():
    inst = random_instance(21)
    for bad in (math.nan, math.inf):
        fns = (lambda t_: 1.0, lambda t_: bad if t_ > 0.0 else 0.0)
        with pytest.raises(ValueError, match="operator entries must be finite"):
            closed_func_calc(inst, fns)
    # u_hat = 1 and w_hat = 1000 at the light point: f(T* T) and f(T T*)
    # hold f(1) = 1e306 times a unit vector's v v*, so their factors and
    # matrices are finite, though 1e306 times w_hat is not.
    sp = FiniteMeasureSpace([1.0, 1e6])
    lopsided = WceInstance(coarsest_partition(sp), constant(sp, 1.0),
                           MeasurableFunction(sp, [1.0, 0.0]))
    f0, frames, coef = closed_func_calc(lopsided, (lambda t_: 1e306 if t_ > 0.0 else 0.0,))
    assert [norm(frame) for frame in frames] == pytest.approx([1.0, 1.0], rel=1e-15)
    assert np.isfinite(frame_matrices(f0, frames, coef)).all()


# |v|^2 and its block mean overflow, and so does the root mean square: the
# parts are 1.5e308, so |v| = sqrt(E|v|^2) = 2.1e308.
RMS_OVERFLOW = [1.5e308 + 1.5e308j, 1.5e308 + 1.5e308j]


def test_support_of_a_non_finite_aggregate_raises():
    # sqrt(E(|u|^2)) is inf: there is no peak to cut the kept blocks at,
    # and inf > tol * inf would keep none.
    sp = FiniteMeasureSpace([1.0, 2.0])
    part = coarsest_partition(sp)
    big = MeasurableFunction(sp, RMS_OVERFLOW)
    one = constant(sp, 1.0)
    with pytest.raises(ValueError, match=r"E\(\|u\|\^2\) is not finite"):
        WceInstance(part, big, one).kept
    with pytest.raises(ValueError, match=r"E\(\|w\|\^2\) is not finite"):
        WceInstance(part, one, big).kept
    # Both overflow: E(|u|^2) is named first.
    with pytest.raises(ValueError, match=r"E\(\|u\|\^2\) is not finite"):
        WceInstance(part, big, big).kept


def test_closed_forms_raise_on_an_overflowing_aggregate_before_using_it():
    # sqrt(E(|w|^2)) is inf: each closed form raises where the kept blocks
    # are cut, before it computes with the RMS, so numpy has nothing to
    # warn about (errstate turns a warning into an error).
    sp = FiniteMeasureSpace([1.0, 1.0])
    part = coarsest_partition(sp)
    u = MeasurableFunction(sp, [1.0, 2.0])
    w = MeasurableFunction(sp, RMS_OVERFLOW)
    fns = tuple(f for _, f in calculus_test_functions())
    for closed in (closed_polar, closed_aluthge, norm_formula,
                   lambda inst: closed_func_calc(inst, fns)):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"E\(\|w\|\^2\) is not finite"):
                closed(WceInstance(part, u, w))


def test_closed_forms_hold_where_only_the_aggregate_overflows():
    # E(|w|^2) = 5e399 is beyond the float range, but its root and T are
    # not: the closed forms match the oracle, and numpy warns of nothing.
    sp = FiniteMeasureSpace([1.0, 1.0])
    inst = WceInstance(coarsest_partition(sp), MeasurableFunction(sp, [1.0, 2.0]),
                       MeasurableFunction(sp, [1e200, 1.0]))
    with np.errstate(all="raise"):
        t = build_operator(inst)
        svd = SvdOracle(t)
        u_op, abs_t, root = closed_polar_matrices(inst)
        abs_ref = svd.gram_calc(svd.sigma[svd.keep])
        assert norm_formula(inst) == pytest.approx(svd.norm, rel=1e-15)
        assert deviation(abs_t, abs_ref) <= 1e-15 * svd.norm
        assert deviation(u_op, svd.polar()) <= 1e-15
        assert deviation(root @ root, abs_t) <= 1e-15 * svd.norm


@pytest.mark.parametrize("a, b", [(-17, -17), (40, 0), (-565, 0), (332, -332),
                                  (-900, 600)])
def test_closed_forms_are_exactly_homogeneous(a, b):
    # T(2^a u, 2^b w) = 2^(a+b) T. The block RMS is taken over the block's
    # largest part, which scales exactly, so sigma scales by exactly
    # 2^(a+b), the unit symbols do not move, and so neither do the frames.
    inst = random_instance(61, zero_blocks=True)

    def scaled(f, e):
        return MeasurableFunction(inst.space, np.ldexp(f.values.view(float), e).view(complex))

    big = WceInstance(inst.partition, scaled(inst.u, a), scaled(inst.w, b))
    assert np.array_equal(big.sigma, np.ldexp(inst.sigma, a + b))
    assert np.array_equal(big.kept, inst.kept)
    assert np.array_equal(big.units, inst.units)
    (v, l, sigma), (big_v, big_l, big_sigma) = closed_polar(inst), closed_polar(big)
    assert np.array_equal(big_v, v) and np.array_equal(big_l, l)
    assert np.array_equal(big_sigma, np.ldexp(sigma, a + b))


class TestClosedPolar:
    def test_projection_polar(self):
        inst = ones_instance([1.0, 2.0, 0.5], blocks=[[0, 1], [2]])
        e = inst.partition.cond_exp_matrix
        u_op, abs_t, _ = closed_polar_matrices(inst)
        assert deviation(u_op, e) < 1e-13
        assert deviation(abs_t, e) < 1e-13

    def test_example_matrices(self, example_instance):
        sp = example_instance.space
        u_op, abs_t, _ = closed_polar_matrices(example_instance)
        np.testing.assert_allclose(
            point_matrix(sp, abs_t), [[math.sqrt(3) / 2, 0], [0, 0]], atol=1e-14
        )
        np.testing.assert_allclose(
            point_matrix(sp, u_op), [[0, 0], [1 / math.sqrt(3), 0]], atol=1e-14
        )

    def test_zero_symbol(self):
        sp = FiniteMeasureSpace([1.0, 3.0])
        inst = WceInstance(
            coarsest_partition(sp),
            constant(sp, 0.0),
            MeasurableFunction(sp, [1, 2]),
        )
        v, l, sigma = closed_polar(inst)
        assert v.shape == l.shape == (2, 0) and sigma.shape == (0,)
        u_op, abs_t, _ = closed_polar_matrices(inst)
        assert norm(u_op) == 0.0
        assert norm(abs_t) == 0.0

    @pytest.mark.parametrize("seed", [41, 42, 43, 44])
    def test_certification(self, seed):
        inst = random_instance(seed, zero_blocks=(seed % 2 == 0))
        t = build_operator(inst)
        u_op, abs_t, _ = closed_polar_matrices(inst)
        gram = adjoint(t) @ t
        assert deviation(abs_t, psd_root(gram)) < 1e-8
        assert deviation(u_op, SvdOracle(t).polar()) < 1e-8
        assert deviation(u_op @ abs_t, t) < 1e-8
        kernels = [kernel_projection(x) for x in (u_op, abs_t, t)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert deviation(kernels[i], kernels[j]) < 1e-7


def test_closed_forms_stay_factored_until_dense(monkeypatch):
    # The closed polar pair is a pair of n x K frames and builds no
    # operator matrix; the Aluthge transform is a Sandwich, and matrices()
    # builds its one matrix.
    built = []
    matrices = Sandwich.matrices

    def counting(sandwich):
        built.append(sandwich)
        return matrices(sandwich)

    inst = random_instance(45)
    monkeypatch.setattr(Sandwich, "matrices", counting)
    v, l, sigma = closed_polar(inst)
    kept = np.unique(inst.partition.block_of[inst.kept]).size
    assert v.shape == l.shape == (inst.space.n, kept) and sigma.shape == (kept,)
    aluthge = closed_aluthge(inst)
    assert built == [] and aluthge.partition is inst.partition
    aluthge.matrices()
    assert len(built) == 1
    # Each frame has orthonormal columns, so U = l v* is a partial isometry.
    for frame in (v, l):
        np.testing.assert_allclose(frame.conj().T @ frame, np.eye(kept), atol=1e-15)
    u_mat = l @ v.conj().T
    uu = u_mat.conj().T @ u_mat
    assert deviation(uu @ uu, uu) < 1e-12


class TestClosedAluthge:
    def test_projection_fixed_point(self):
        inst = ones_instance([1.0, 2.0, 0.5], blocks=[[0, 1], [2]])
        e = inst.partition.cond_exp_matrix
        assert deviation(closed_aluthge(inst).matrices(), e) < 1e-13

    def test_example_matrix(self):
        # mu = (1, 3), u = w = (2, 0): E(u w) = E(|u|^2) = 1, so the
        # transform sends f to (f0, 0).
        sp = FiniteMeasureSpace([1.0, 3.0])
        f = MeasurableFunction(sp, [2, 0])
        inst = WceInstance(coarsest_partition(sp), f, f)
        np.testing.assert_allclose(
            point_matrix(sp, closed_aluthge(inst).matrices()), [[1, 0], [0, 0]], atol=1e-14
        )

    def test_zero_symbol(self):
        sp = FiniteMeasureSpace([1.0, 3.0])
        inst = WceInstance(
            coarsest_partition(sp),
            constant(sp, 0.0),
            MeasurableFunction(sp, [1, 2]),
        )
        assert norm(closed_aluthge(inst).matrices()) == 0.0

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_certification(self, seed):
        inst = random_instance(seed, zero_blocks=(seed % 2 == 1))
        t = build_operator(inst)
        half = psd_root(psd_root(adjoint(t) @ t))
        oracle = half @ SvdOracle(t).polar() @ half
        assert deviation(closed_aluthge(inst).matrices(), oracle) < 1e-8
        _, abs_t, root = closed_polar_matrices(inst)
        assert deviation(root @ root, abs_t) < 1e-8

