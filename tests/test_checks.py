"""Per-instance factorization caching in CheckContext, the oracle norms
the checks hold instead of taking, the stacked spectral checks against
their per-eigenvalue and per-round references, the run's one tolerance
reaching the spectral decomposition, and hard files (near T's rank cut,
near normality, at extreme weights) on which no record may fail."""

import json
from functools import cached_property

import numpy as np
import pytest

from wcelab import checks, opalgebra
from wcelab.checks import (
    DEFAULT_TOL,
    CheckContext,
    calculus_test_functions,
    check_aluthge,
    check_func_calc,
    check_measure_axioms,
    check_norm,
    check_partial_isometry,
    check_polar,
    check_normality,
    check_reconstruction,
    check_spectral_decomp,
    check_spectrum,
    check_vanishing,
    _eigvals_match_residual,
)
from wcelab.cli import main
from wcelab.generator import GeneratorConfig, gen_instance, rotation_config
from wcelab.instance_io import InstanceBundle, parse_instance, serialize_instance
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.opalgebra import op_deviations
from wcelab.condexp import Sandwich
from wcelab.spectral import AvgMult, PointMap
from wcelab.suite import run_suite
from wcelab.wce import WceInstance, build_operator, closed_func_calc

from conftest import closed_calc, coarsest_partition, constant, norm, random_blockwise

_MODES = ({}, {"zero_blocks": True}, {"constant_u": True},
          {"measurable_u": True}, {"partial_isometry": True})


def generated_bundles():
    """One instance per n = 2..64, block counts and modes cycling."""
    return [gen_instance(GeneratorConfig(seed=700 + n, n=n,
                                         block_count=1 + (31 * (700 + n)) % n,
                                         **_MODES[n % 5]))
            for n in range(2, 65)]


def eigen_sum(a, f):
    """sum_k f(lambda_k) v_k <v_k, .> for a positive operator, one rank-one
    term per eigenpair, from a fresh np.linalg.eigh; eigenvalues at or
    below 1e-10 ||a|| are taken as exact kernel."""
    values, basis = np.linalg.eigh(a)
    values = np.where(values <= 1e-10 * np.abs(values).max(initial=0.0), 0.0, values)
    return sum((f(float(lam)) * np.outer(v, v.conj())
                for lam, v in zip(values, basis.T)),
               np.zeros(a.shape, dtype=complex))


def reference_func_calc(inst):
    """The per-function loop: a fresh eigendecomposition, an eigen-sum and
    three SVD norms for each test function."""
    t = build_operator(inst)
    t_adj = t.conj().T
    products = {"func_calc_gram": t_adj @ t, "func_calc_cogram": t @ t_adj}
    out = dict.fromkeys(products, 0.0)
    for _, f in calculus_test_functions():
        for name, a in zip(products, closed_calc(inst, f)):
            b = eigen_sum(products[name], f)
            dev = norm(a - b) / (1.0 + max(norm(a), norm(b)))
            out[name] = max(out[name], dev)
    return out


def test_func_calc_matches_per_function_reference():
    for bundle in generated_bundles():
        ctx = CheckContext(bundle)
        expected = reference_func_calc(ctx.instance)
        for rec in check_func_calc(ctx):
            assert rec.residual == pytest.approx(expected[rec.name], rel=0, abs=1e-13)


def test_one_factorization_per_operator(monkeypatch):
    bundle = gen_instance(GeneratorConfig(seed=11, n=16, block_count=4))
    ctx = CheckContext(bundle)
    t = ctx.t
    full_svds, eighs = [], []
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            full_svds.append(a)
        return svd(a, *args, **kwargs)

    def counting_eigh(*args, **kwargs):
        eighs.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for group in (check_func_calc, check_polar, check_aluthge):
        assert all(r.status == "pass" for r in group(ctx))
    # T's norm, polar factors, half-power root, kernel and both Gram
    # calculi come from one SVD of T; no Gram product is factored.
    assert sum(a is t for a in full_svds) == 1
    assert eighs == []
    # The other full SVDs are the kernels of closed U and closed |T|.
    assert len(full_svds) == 3


def test_one_cond_exp_matrix_per_partition(monkeypatch):
    # E's matrix is built by one cached property, once per partition: the
    # instance's partition and the point map's fiber partition.
    built = count_getter(monkeypatch, Partition, "cond_exp_matrix")
    bundle = gen_instance(GeneratorConfig(seed=17, n=12, block_count=4,
                                          measurable_u=True, with_point_map=True))
    report = run_suite([bundle])
    assert report.failed == 0 and report.skipped == 0
    assert len(built) <= 2
    assert len({id(p) for p in built}) == len(built)


def test_closed_identities_take_no_dense_products(monkeypatch):
    # U |T|, U* U, (U* U)^2 and V^2 are formed in the Sandwich algebra and
    # become one matrix each, not a product of two: check_polar builds U,
    # |T|, U |T|, (U* U)^2 and U* U, check_aluthge the transform and V^2;
    # the matrix of the closed |T| is built once for both.
    ctx = CheckContext(gen_instance(GeneratorConfig(seed=11, n=16, block_count=4)))
    _ = ctx.t
    built = []
    matrices = Sandwich.matrices

    def counting(sandwich):
        built.append(sandwich)
        return matrices(sandwich)

    monkeypatch.setattr(Sandwich, "matrices", counting)
    assert all(r.status == "pass" for r in check_polar(ctx))
    assert len(built) == 5
    assert all(r.status == "pass" for r in check_aluthge(ctx))
    assert len(built) == 7


def count_getter(monkeypatch, owner, name):
    """Replace the cached property owner.name with one that records the
    instance of every build; returns the list of them."""
    calls = []
    build = vars(owner)[name].func

    def counting(obj):
        calls.append(obj)
        return build(obj)

    prop = cached_property(counting)
    prop.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, prop)
    return calls


@pytest.mark.parametrize("measurable_u", [True, False])
def test_spectral_decomp_tests_normality_once(monkeypatch, measurable_u):
    # The block spread is CheckContext's AvgMult's: normality and
    # spectral_decomp read the one copy.
    calls = count_getter(monkeypatch, AvgMult, "spread")
    bundle = gen_instance(GeneratorConfig(seed=19, n=10, block_count=3,
                                          measurable_u=measurable_u))
    ctx = CheckContext(bundle)
    records = check_spectral_decomp(ctx)
    assert {r.status for r in records} == {"pass" if measurable_u else "skip"}
    assert [r.status for r in check_normality(ctx)] == ["pass"]
    assert len(calls) == 1


def test_full_suite_does_the_spectral_work_once(monkeypatch):
    # Over the rotation seeds 1..40 with --full: E M_u's block spread and
    # eigenvalue groups are built once per instance, and no all-zero slice
    # of a stack reaches LAPACK (the measure axioms' additivity and empty
    # set residuals are exact zeros).
    builds = {name: count_getter(monkeypatch, AvgMult, name) for name in ("spread", "groups")}
    zero_slices = []
    svd = np.linalg.svd

    def spying_svd(a, *args, **kwargs):
        if a.ndim == 3:
            zero_slices.extend(np.flatnonzero(~a.any(axis=(1, 2))))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spying_svd)
    assert main(["suite", "--seeds", "1..40", "--full"]) == 0
    assert {name: len(calls) for name, calls in builds.items()} == {"spread": 40, "groups": 40}
    assert zero_slices == []


def test_norms_already_held_are_not_taken_again(monkeypatch):
    bundle = gen_instance(GeneratorConfig(seed=11, n=16, block_count=4))
    ctx = CheckContext(bundle)
    t_norms = []
    original = checks.spectral_norms

    def counting(a):
        if a is ctx.t:
            t_norms.append(a)
        return original(a)

    svds = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if a is ctx.t:
            svds.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(checks, "spectral_norms", counting)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for group in (check_norm, check_vanishing, check_partial_isometry):
        assert all(r.status == "pass" for r in group(ctx))
    # ||T|| is read off T's one SVD, never taken as a norm of its own.
    assert len(t_norms) == 0 and len(svds) == 1

    sent = []
    kernel = opalgebra.spectral_norms

    def counting_norms(stack):
        sent.extend(np.array(stack).reshape(-1, *stack.shape[-2:]))
        return kernel(stack)

    # Every spectral norm of the package goes through this one kernel.
    monkeypatch.setattr(opalgebra, "spectral_norms", counting_norms)
    fresh = CheckContext(bundle)
    assert all(r.status == "pass" for r in check_func_calc(fresh))
    fns = [f for _, f in calculus_test_functions()]
    oracles, residuals = [], []
    fvals = np.asarray([[f(v) for v in fresh.svd.squares().tolist()] for f in fns], dtype=complex)
    for closed, calc in zip(closed_func_calc(fresh.instance, fns),
                            (fresh.svd.gram_calc, fresh.svd.cogram_calc)):
        oracle = calc(fvals)
        oracles.extend(oracle)
        residuals.extend(closed - oracle)
    # The oracle side's norms are its largest |f(sigma_k^2)|, read off the
    # singular values: no oracle matrix reaches the kernel. Only the residual
    # slices do, each at most once.
    assert not any(np.array_equal(m, o) for m in sent for o in oracles)
    hits = [sum(np.array_equal(m, r) for m in sent) for r in residuals]
    assert sent and max(hits) <= 1 and sum(hits) == len(sent)


def zero_operator_bundle():
    """T = 0: u vanishes everywhere."""
    sp = FiniteMeasureSpace([1.0, 2.0, 0.5])
    u = constant(sp, 0.0)
    w = constant(sp, 1.0)
    return InstanceBundle(WceInstance(coarsest_partition(sp), u, w))


@pytest.mark.parametrize("group, tol", [
    (check_polar, 1e-13),
    (check_aluthge, 1e-13),
    (check_spectral_decomp, 1e-13),
    # max |f(sigma_k^2)| is the norm of the operator the singular basis
    # stands for; the assembled matrix carries the SVD's loss of
    # orthogonality.
    (check_func_calc, 1e-12),
])
def test_held_norms_agree_with_svd_norms(monkeypatch, group, tol):
    # Every reference norm a check passes to op_deviations or
    # max_op_deviation instead of taking it (the singular values, ranks
    # read off traces) is the spectral norm of that reference matrix.
    held = []
    original = checks.op_deviations

    def spy(a, b, b_norms=None):
        if b_norms is not None:
            held.append((np.array(b), np.array(b_norms, dtype=float)))
        return original(a, b, b_norms)

    # max_op_deviation gets the residuals, written over the oracle stack,
    # so the oracle is caught as the last Gram calculus returns it.
    oracles = []

    def spy_on(calc):
        def spy_calc(self, values):
            oracles.append(calc(self, values))
            return oracles[-1].copy()
        return spy_calc

    original_max = checks.max_op_deviation

    def spy_max(diff, b_norms):
        held.append((oracles[-1], np.array(b_norms, dtype=float)))
        return original_max(diff, b_norms)

    monkeypatch.setattr(checks, "op_deviations", spy)
    monkeypatch.setattr(checks, "max_op_deviation", spy_max)
    for name in ("gram_calc", "cogram_calc"):
        monkeypatch.setattr(opalgebra.SvdOracle, name,
                            spy_on(getattr(opalgebra.SvdOracle, name)))
    bundles = generated_bundles() + [zero_operator_bundle()]
    for bundle in bundles:
        group(CheckContext(bundle))
    assert len(held) >= len(bundles) // 3
    for b, norms in held:
        svd = [norm(m) for m in b]
        np.testing.assert_allclose(norms, svd, rtol=tol, atol=tol)


def test_func_calc_prunes_svds_on_the_dense_files(monkeypatch):
    # The 15 n = 64 instances of the dense benchmark workload (seeds
    # 100000..100014, 2..16 blocks, the modes cycling): residuals whose
    # Frobenius bound cannot be the maximum take no SVD, so fewer than the
    # 2 x 6 matrices per instance reach one, and every record is the one
    # the maximum of op_deviations gives.
    fns = [f for _, f in calculus_test_functions()]
    matrices = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        matrices.append(int(np.prod(a.shape[:-2])))
        return svd(a, *args, **kwargs)

    for i in range(15):
        ctx = CheckContext(gen_instance(GeneratorConfig(
            seed=100_000 + i, n=64, block_count=2 + i % 15, **_MODES[i % 5])))
        expected = []
        fvals = np.asarray([[f(v) for v in ctx.svd.squares().tolist()] for f in fns], dtype=complex)
        for name, closed, calc in zip(
            ("func_calc_gram", "func_calc_cogram"), closed_func_calc(ctx.instance, fns),
            (ctx.svd.gram_calc, ctx.svd.cogram_calc),
        ):
            worst = op_deviations(closed, calc(fvals), np.abs(fvals).max(axis=1)).max()
            expected.append(ctx.record(name, worst, 10 * ctx.tol))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert check_func_calc(ctx) == expected
        monkeypatch.setattr(np.linalg, "svd", svd)
    assert sum(matrices) < 15 * 2 * len(fns)


def two_sided_deviation(a, b):
    """||a - b|| / (1 + max(||a||, ||b||)), three separate SVD norms."""
    return norm(a - b) / (1.0 + max(norm(a), norm(b)))


def reference_spectral_decomp(inst):
    """The per-eigenvalue loop: the projections one at a time, five norms
    per projection, one norm per pair of projections."""
    n = inst.space.n
    e_matrix = inst.partition.cond_exp_matrix
    avg_mult = AvgMult(inst.u, inst.partition, DEFAULT_TOL)
    reps, group = avg_mult.groups
    point_group = group[inst.partition.block_of]
    eigenvalues, projections = [], []
    accumulated = np.zeros((n, n), dtype=complex)
    for g in sorted(range(1, len(reps)), key=lambda g: (reps[g].real, reps[g].imag)):
        p = (point_group == g)[:, None] * e_matrix
        eigenvalues.append(reps[g])
        projections.append(p)
        accumulated += p
    kernel = np.eye(n, dtype=complex) - accumulated
    if float(np.trace(kernel).real) > 0.5:
        eigenvalues.append(0j)
        projections.append(kernel)

    m = avg_mult.matrix
    proj_res, total_rank = 0.0, 0
    recon = np.zeros((n, n), dtype=complex)
    for lam, p in zip(eigenvalues, projections):
        proj_res = max(proj_res, two_sided_deviation(p @ p, p),
                       norm(p - p.conj().T) / (1.0 + norm(p)))
        total_rank += round(float(np.trace(p).real))
        recon += lam * p
    orth_res = 0.0
    for i in range(len(projections)):
        for j in range(i + 1, len(projections)):
            orth_res = max(orth_res, norm(projections[i] @ projections[j]))
    return {
        "sd_projections": proj_res,
        "sd_orthogonality": orth_res,
        "sd_reconstruction": two_sided_deviation(recon, m),
        "sd_rank_sum": float(abs(total_rank - n)),
        "sd_eigs_match": checks._eigvals_match_residual(
            eigenvalues, [complex(z) for z in np.linalg.eigvals(m)]),
    }


def reference_reconstruction(ctx):
    """The per-round loop: per seeded symbol, sum_s v(s) measure({s}) one
    singleton at a time against E_phi M_u, three norms per round."""
    phi = ctx.bundle.point_map
    rng = ctx.rng("reconstruction")
    fp = phi.partition
    singletons = np.eye(phi.space.n, dtype=bool)
    worst = 0.0
    for _ in range(3):
        u = MeasurableFunction(phi.space, random_blockwise(rng, fp))
        rebuilt = sum((u.values[fiber[0]] * phi.values(singletons[s][None])[0]
                       for s, fiber in phi.fibers),
                      np.zeros((phi.space.n, phi.space.n), dtype=complex))
        worst = max(worst, two_sided_deviation(rebuilt, AvgMult(u, fp, DEFAULT_TOL).matrix))
    return worst


def spectral_bundles():
    """Blockwise-constant symbols with point maps, n = 2..24."""
    return [gen_instance(GeneratorConfig(seed=900 + n, n=n,
                                         block_count=1 + (31 * (900 + n)) % n,
                                         with_point_map=True,
                                         **({"constant_u": True} if n % 4 == 0
                                            else {"measurable_u": True})))
            for n in range(2, 25)]


def test_spectral_decomp_matches_per_eigenvalue_reference():
    for bundle in spectral_bundles():
        ctx = CheckContext(bundle)
        expected = reference_spectral_decomp(ctx.instance)
        records = check_spectral_decomp(ctx)
        assert all(r.status == "pass" for r in records)
        for rec in records:
            assert rec.residual == pytest.approx(expected[rec.name], rel=0, abs=1e-13)


def test_reconstruction_matches_per_round_reference():
    for bundle in spectral_bundles():
        ctx = CheckContext(bundle)
        [rec] = check_reconstruction(ctx)
        assert rec.status == "pass"
        assert rec.residual == pytest.approx(reference_reconstruction(ctx), rel=0, abs=1e-13)


def test_one_avg_mult_operator_per_instance(monkeypatch):
    # normality, spectrum and spectral_decomp share one matrix of E M_u
    # and one eigvals of it.
    factored = []
    eigvals = np.linalg.eigvals
    built = count_getter(monkeypatch, AvgMult, "matrix")

    def counting_eigvals(a):
        factored.append(a)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    ctx = CheckContext(gen_instance(GeneratorConfig(seed=23, n=12, block_count=4,
                                                    measurable_u=True)))
    for group in (check_normality, check_spectrum, check_spectral_decomp):
        assert all(r.status == "pass" for r in group(ctx))
    assert len(built) == 1
    assert len(factored) == 1 and factored[0] is ctx.avg_mult.matrix


def test_one_measure_table_per_instance(monkeypatch):
    # Both frames of the measure axioms and the reconstruction share the
    # fiber partition, and so the fiber average, the point map caches.
    partitions = count_getter(monkeypatch, PointMap, "partition")
    ctx = CheckContext(gen_instance(GeneratorConfig(seed=13, n=9, block_count=3,
                                                    with_point_map=True)))
    for group in (check_measure_axioms, check_reconstruction):
        assert all(r.status == "pass" for r in group(ctx))
    assert partitions == [ctx.bundle.point_map]


def test_func_calc_catches_one_perturbed_function(monkeypatch):
    original = checks.closed_func_calc

    def perturbed(inst, fns):
        gram, cogram = original(inst, fns)
        # Only the f(T* T) slice of the constant function 1 is perturbed.
        for k, f in enumerate(fns):
            if f(0.0) == f(3.0) == 1.0:
                gram[k] *= 1.0 + 1e-6
        yield from (gram, cogram)

    monkeypatch.setattr(checks, "closed_func_calc", perturbed)
    bundle = gen_instance(GeneratorConfig(seed=12, n=10, block_count=3))
    status = {r.name: r.status for r in check_func_calc(CheckContext(bundle))}
    assert status == {"func_calc_gram": "fail", "func_calc_cogram": "pass"}


def faint_block_bundle():
    """Two blocks; E(|u|^2) on the second is 1e-6 of the first."""
    sp = FiniteMeasureSpace([1.0, 2.0, 1.0, 3.0])
    part = Partition(sp, [[0, 1], [2, 3]])
    u = MeasurableFunction(sp, np.array([1.0, 1.0, 1e-3, 1e-3], dtype=complex))
    w = constant(sp, 1.0)
    return InstanceBundle(WceInstance(part, u, w))


def crossed_aggregates_bundle():
    """E(|u|^2) = (1, 1, 1e-11, 1e-11) and E(|w|^2) = (1, 1, 1e11, 1e11):
    each aggregate is faint where the other is large, yet the product is 1
    everywhere, so T is a partial isometry with sigma = (1, 1)."""
    sp = FiniteMeasureSpace([1.0] * 4)
    part = Partition(sp, [[0, 1], [2, 3]])
    small, large = np.sqrt(1e-11), np.sqrt(1e11)
    u = MeasurableFunction(sp, [1.0, 1.0, small, small])
    w = MeasurableFunction(sp, [1.0, 1.0, large, large])
    return InstanceBundle(WceInstance(part, u, w))


def faint_sigma_bundle():
    """sigma = (1, 1e-5): far above the rank cut, while sigma^2 = 1e-10 is
    below the 1e-8 scale of the partial-isometry criterion."""
    sp = FiniteMeasureSpace([1.0] * 4)
    part = Partition(sp, [[0, 1], [2, 3]])
    u = MeasurableFunction(sp, [1.0, 1.0, 1e-5, 1e-5])
    w = constant(sp, 1.0)
    return InstanceBundle(WceInstance(part, u, w))


def tiny_sigma_bundle():
    """sigma = (1, 2e-10): just above the rank cut, so both blocks are kept,
    yet T T* T - T is 2e-10 there, far below tol: T is a partial isometry
    up to tol although the product 4e-20 on the second block is not 1."""
    sp = FiniteMeasureSpace([1.0] * 4)
    part = Partition(sp, [[0, 1], [2, 3]])
    u = MeasurableFunction(sp, [1.0, 1.0, 2e-10, 2e-10])
    w = constant(sp, 1.0)
    return InstanceBundle(WceInstance(part, u, w))


def scaled_bundle():
    """The generated seed-3 instance (n = 8, 3 blocks) with u and w scaled
    by 1e-4, so ||T|| ~ 1e-8: every cut on T must be relative to it."""
    inst = gen_instance(GeneratorConfig(seed=3, n=8, block_count=3)).instance
    return InstanceBundle(WceInstance(
        inst.partition, MeasurableFunction(inst.space, 1e-4 * inst.u.values),
        MeasurableFunction(inst.space, 1e-4 * inst.w.values)))


def near_normal_bundle():
    """u is blockwise constant up to a 1e-7 relative step in its first
    block: ||E M_u - E M_{E u}|| / (1 + ||E M_u||) is 3.1e-8, so the
    spectral decomposition is measured at tol 1e-7 and skipped at 1e-8."""
    sp = FiniteMeasureSpace([1.0, 2.0, 0.5, 1.5])
    part = Partition(sp, [[0, 1], [2, 3]])
    u = MeasurableFunction(sp, [2.0, 2.0000002, -1 + 0.5j, -1 + 0.5j])
    w = MeasurableFunction(sp, [1.0, 0.5, 1 + 1j, 2.0])
    return InstanceBundle(WceInstance(part, u, w))


# Files near T's rank cut: faint blocks, crossed aggregates, a faint
# singular value and a small norm. A cut on the quadratic aggregates, or
# an absolute floor, puts the closed forms and the oracle on different
# ranks here.
SMALL_AGGREGATE_DOC = (
    '{"weights":[1,1,1,1,1,1],"partition":[[0,1],[2,3],[4,5]],'
    '"u":[[1,0],[0.5,0.2],[1e-6,0],[2e-6,0],[0.7,-0.3],[1.3,0]],'
    '"w":[[1,0],[0.8,0.1],[1.2,0],[0.9,0.4],[1,1],[0.6,0]]}')
# Files near normality. At weights 1e-300 and 1e300 E M_u is normal to
# within 1e-300 though u is not constant: no bound scaled by tol can tell
# its commutator from 0. On the mean-zero file the commutator of the
# second block is quadratic in the 1e-5 step, while E M_u - E M_{E u} is
# linear in it.
EXTREME_WEIGHT_DOC = (
    '{"weights":[1e-300,1e300],"partition":[[0,1]],'
    '"u":[[1,0],[2,0]],"w":[[1,0],[1,0]]}')
MEAN_ZERO_DOC = (
    '{"weights":[1,1,1,1],"partition":[[0,1],[2,3]],'
    '"u":[[1,0],[1,0],[1e-5,0],[-1e-5,0]],"w":[[1,0],[1,0],[1,0],[1,0]]}')
# The second block's spread (1.9e-8) and its mean's distance to the
# eigenvalue 1 it merges into (1.9e-8) are each within tol (1 + ||E M_u||)
# at tol 1e-8, but together E M_u misses its decomposition by 2.7e-8.
NEAR_MERGE_DOC = (
    '{"weights":[1,1,1,1],"partition":[[0,1],[2,3]],'
    '"u":[[1,0],[1,0],[1.000000038,0],[1,0]],"w":[[1,0],[1,0],[1,0],[1,0]]}')

HARD_BUNDLES = {
    "six_point": lambda: parse_instance(SMALL_AGGREGATE_DOC),
    "faint_block": faint_block_bundle,
    "crossed_aggregates": crossed_aggregates_bundle,
    "faint_sigma": faint_sigma_bundle,
    "tiny_sigma": tiny_sigma_bundle,
    "scaled": scaled_bundle,
    "near_normal": near_normal_bundle,
    "extreme_weight": lambda: parse_instance(EXTREME_WEIGHT_DOC),
    "mean_zero": lambda: parse_instance(MEAN_ZERO_DOC),
    "near_merge": lambda: parse_instance(NEAR_MERGE_DOC),
}


def failing_records(report):
    return [r.name for r in report.records if r.status == "fail"]


def test_partial_isometry_with_crossed_aggregates_passes():
    ctx = CheckContext(crossed_aggregates_bundle())
    assert ctx.instance.kept.all()
    [record] = check_partial_isometry(ctx)
    assert record.bound == "upper"
    assert record.status == "pass"


@pytest.mark.parametrize("name", sorted(HARD_BUNDLES))
def test_hard_file_gives_no_false_fail(name):
    # On faint_sigma a criterion that takes the 1e-10 product on the second
    # block for 0 calls T a partial isometry, on tiny_sigma one that wants
    # the product 1 on every kept block does not, and partial_isometry
    # fails; on scaled an absolute floor under vanishing_meets fails. On
    # near_normal, extreme_weight and mean_zero a normality decided on a
    # scale of its own fails normality or sd_reconstruction, and on
    # near_merge one decided before the block means are grouped fails
    # sd_reconstruction.
    bundle = HARD_BUNDLES[name]()
    for tol in (1e-8, 1e-7, 1e-5):
        assert failing_records(run_suite([bundle], tol=tol)) == []


def test_both_sides_share_one_rank():
    # The oracle keeps as many singular values of T as the closed forms
    # keep blocks: one cut, RANK_TOL, on one scale.
    bundles = [gen_instance(rotation_config(seed, with_point_map=True))
               for seed in range(1, 201)]
    bundles += [make() for make in HARD_BUNDLES.values()]
    for bundle in bundles:
        ctx = CheckContext(bundle)
        kept_blocks = np.unique(ctx.instance.partition.block_of[ctx.instance.kept])
        assert int(ctx.svd.keep.sum()) == kept_blocks.size


@pytest.mark.parametrize("tol", [None, "1e-7"])
def test_near_normal_symbol_gives_no_false_fail(tmp_path, tol):
    # The run's --tol decides whether the spectral decomposition is
    # measured: on the scale of its own sd_reconstruction.
    inst_file = tmp_path / "near_normal.json"
    inst_file.write_text(serialize_instance(near_normal_bundle()))
    report_file = tmp_path / "report.json"
    args = ["verify", str(inst_file), "--report", str(report_file)]
    if tol is not None:
        args += ["--tol", tol]
    assert main(args) == 0
    records = [r for r in json.loads(report_file.read_text())["records"]
               if r["name"].startswith("sd_")]
    assert len(records) == 5
    assert {r["status"] for r in records} == {"skip" if tol is None else "pass"}


@pytest.mark.parametrize("expected, computed", [
    ([0j, 1 + 0j], [0j, 1 + 0j, 2 + 0j]),
    ([0j, 1 + 0j, 2 + 0j], [0j, 1 + 0j]),
])
def test_eigenvalue_match_sees_both_directions(expected, computed):
    # An eigenvalue missing on either side is a distance of 1 from the
    # other set, relative to 1 + 2: neither one-sided distance alone sees
    # both cases.
    assert _eigvals_match_residual(expected, computed) > 0.3
    assert _eigvals_match_residual(computed, computed) == 0.0
