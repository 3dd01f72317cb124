"""Per-instance factorization caching in CheckContext, the oracle norms
the checks hold instead of taking, the stacked spectral checks against
their per-eigenvalue and per-round references, the run's one tolerance
reaching the spectral decomposition, and hard files (near T's rank cut,
near normality, at extreme weights) on which no record may fail."""

import json
import math
import sys
from functools import cached_property

import numpy as np
import pytest

from wcelab import checks, opalgebra, spectral
from wcelab.checks import (
    BASIC_GROUPS,
    CHECK_GROUPS,
    DEFAULT_TOL,
    CheckContext,
    calculus_test_functions,
    check_aluthge,
    check_condexp,
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
from wcelab.opalgebra import SvdOracle, op_deviations, spectral_norms
from wcelab.condexp import Sandwich
from wcelab.spectral import AvgMult, PointMap
from wcelab.suite import run_suite
from wcelab.wce import WceInstance, build_operator

from conftest import (closed_calc, coarsest_partition, constant, edge_bundle,
                      finest_partition, frame_matrices, kernel_projection, norm,
                      random_complex)

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


def dense_func_calc_residuals(ctx):
    """The func_calc residuals from dense n x n stacks, kept only here:
    op_deviations of the closed sandwich f(0) I + M_d E M_r, d = (f o
    sigma^2 - f(0)) conj(r), against the oracle R diag(f(sigma^2)) R* over
    all n singular vectors (L for T T*), with 0 in place of the squares the
    rank cut drops."""
    inst, svd = ctx.instance, ctx.svd
    fns = [f for _, f in calculus_test_functions()]
    f0 = np.asarray([complex(f(0.0)) for f in fns])
    eye = np.eye(inst.space.n)
    closed_values = np.asarray([[f(s * s) for s in inst.sigma.tolist()] for f in fns])
    spectrum = (np.where(svd.keep, svd.sigma, 0.0) ** 2).tolist()
    oracle_values = np.asarray([[f(v) for v in spectrum] for f in fns], dtype=complex)
    out = {}
    for name, r, vectors in (("func_calc_gram", inst.units[0], svd.right_h.conj().T),
                             ("func_calc_cogram", np.conj(inst.units[1]), svd.left)):
        d = (closed_values - f0[:, None]) * np.conj(r)
        closed = Sandwich(inst.partition, d, r).matrices() + f0[:, None, None] * eye
        oracle = (vectors * oracle_values[:, None, :]) @ vectors.conj().T
        out[name] = float(op_deviations(closed, oracle, spectral_norms(oracle)).max())
    return out


def held_func_calc_norms(monkeypatch):
    """The oracle norms check_func_calc holds, one vector per call, as it
    reads them through reference_scale."""
    held = []
    original = checks.reference_scale

    def spy(size):
        held.append(np.array(size, dtype=float))
        return original(size)

    monkeypatch.setattr(checks, "reference_scale", spy)
    return held


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
    # T's norm, polar factor, half-power root, kept vectors and both Gram
    # calculi come from one SVD of T; no Gram product is factored, and the
    # closed U and |T| are compared on their frames, never factored.
    assert sum(a is t for a in full_svds) == 1
    assert eighs == []
    assert len(full_svds) == 1


def test_polar_takes_no_dense_kernel_work(monkeypatch):
    # At n = 64, check_polar factors nothing (T's SVD and the frames' QR
    # are the context's, shared with every group) and takes one n x n norm,
    # the factorization's against T. Closed |T|, closed U, U* U and the
    # kernels are read off one batched SVD of four q x q matrices on the
    # frames [v, R_k] and [l, L_k], q = K + k < n, never as n x n matrices.
    n = 64
    ctx = CheckContext(gen_instance(GeneratorConfig(seed=3, n=n, block_count=9,
                                                    zero_blocks=True)))
    ctx.frame_factors
    q = 2 * int(ctx.svd.keep.sum())
    assert 0 < q < n
    full, values_only = [], []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        (full if kwargs.get("compute_uv", True) else values_only).append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert all(r.status == "pass" for r in check_polar(ctx))
    assert full == [] and sorted(values_only) == [(1, n, n), (4, q, q)]


def test_basic_groups_keep_their_svd_budget(tmp_path, monkeypatch):
    # The n x n matrices each basic group sends to np.linalg.svd, as
    # (full, values-only), on the first file of the dense n = 64 benchmark
    # workload, the groups run in order on one context as verify runs
    # them. norm takes T's one SVD; vanishing takes its norms on the
    # support rows of g alone, partial_isometry reads T's singular values
    # and polar_projection closed U's, so these three take no n x n SVD of
    # their own. func_calc, polar and aluthge read their residuals on the
    # thin frames of kept vectors, so only the two against dense
    # references, polar_factorization's against T and aluthge_closed's
    # against root U root, take one values-only n x n SVD each.
    n = 64
    path = tmp_path / "dense.json"
    assert main(["gen", "--seed", "100000", "--n", str(n), "--blocks", "2",
                 "-o", str(path)]) == 0
    ctx = CheckContext(parse_instance(path.read_text()))
    counts = {}
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        square = sum(m.shape == (n, n) for m in a.reshape(-1, *a.shape[-2:]))
        full, values_only = counts[group]
        counts[group] = ((full + square, values_only) if kwargs.get("compute_uv", True)
                         else (full, values_only + square))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for group in BASIC_GROUPS:
        counts[group] = (0, 0)
        assert all(r.status == "pass" for r in CHECK_GROUPS[group](ctx))
    assert counts == {"condexp": (0, 0), "norm": (1, 0), "vanishing": (0, 0),
                      "partial_isometry": (0, 0), "func_calc": (0, 0), "polar": (0, 1),
                      "aluthge": (0, 1)}


def planted_frames(monkeypatch, plant):
    """Replace the closed polar frames (v, l, sigma) every check reads with
    plant(v, l, sigma)."""
    closed_polar = checks.closed_polar
    monkeypatch.setattr(checks, "closed_polar", lambda inst: plant(*closed_polar(inst)))


def test_polar_kernels_fail_on_a_rotated_kernel(monkeypatch):
    # A non-constant phase on v over one kept block of two or more points
    # keeps the closed frames orthonormal and every rank, but turns span v,
    # the complement of ker U = ker |T|, away from the complement of ker T:
    # polar_kernels must see the principal angle and fail.
    planted_count = 0
    for seed in range(8):
        bundle = gen_instance(GeneratorConfig(seed=seed, n=12, block_count=3,
                                              zero_blocks=seed % 2 == 1))
        # The frames' columns are the kept blocks in block order.
        block_of = bundle.instance.partition.block_of
        picks = [(k, b) for k, b in enumerate(np.unique(block_of[bundle.instance.kept]))
                 if (block_of == b).sum() >= 2]
        if not picks:
            continue
        column, block = picks[0]
        statuses = {r.name: r.status for r in check_polar(CheckContext(bundle))}
        assert statuses["polar_kernels"] == "pass"

        def rotate(v, l, sigma):
            v = v.copy()
            v[:, column] *= np.where(block_of == block, np.exp(1j * np.arange(v.shape[0])), 1.0)
            return v, l, sigma

        with monkeypatch.context() as m:
            planted_frames(m, rotate)
            ctx = CheckContext(bundle)
            records = {r.name: r for r in check_polar(ctx)}
        assert records["polar_kernels"].status == "fail"
        # The rank is kept, so the gap is a principal angle, not a mismatch.
        assert ctx.polar_closed[2].size == ctx.svd.keep.sum()
        assert records["polar_kernels"].residual < 1.0 / (1.0 + (~ctx.svd.keep).any())
        planted_count += 1
    assert planted_count >= 6


def test_polar_projection_fails_on_a_scaled_block(monkeypatch):
    # l_B times 1.5 on one kept block gives the closed U the singular value
    # 1.5 there, so U* U is no projection: polar_projection must read
    # s^4 - s^2 = 2.8125 off closed U's singular values and fail.
    bundle = gen_instance(GeneratorConfig(seed=5, n=12, block_count=3))
    statuses = {r.name: r.status for r in check_polar(CheckContext(bundle))}
    assert statuses["polar_projection"] == "pass"
    planted_frames(monkeypatch, lambda v, l, sigma: (v, l * np.where(
        np.arange(sigma.size) == 0, 1.5, 1.0), sigma))
    records = {r.name: r for r in check_polar(CheckContext(bundle))}
    assert records["polar_projection"].status == "fail"
    assert records["polar_projection"].residual == pytest.approx(1.5 ** 4 - 1.5 ** 2)


def test_polar_abs_fails_on_a_doubled_sigma():
    # sigma_B times 2 in the closed |T| on a single instance at scale 1, with
    # no other instance to compare it with: polar_abs must fail, and the
    # closed U, which does not read sigma, still passes.
    bundle = gen_instance(GeneratorConfig(seed=7, n=10, block_count=3))
    ctx = CheckContext(bundle)
    assert all(r.status == "pass" for r in check_polar(ctx))
    v, l, sigma = ctx.polar_closed
    ctx.polar_closed = v, l, 2.0 * sigma
    statuses = {r.name: r.status for r in check_polar(ctx)}
    assert statuses["polar_abs"] == statuses["polar_factorization"] == "fail"
    assert statuses["polar_isometry"] == statuses["polar_projection"] == "pass"


def test_polar_isometry_fails_on_a_phase_of_one_block(monkeypatch):
    # A constant phase e^(i theta) on one l_B leaves closed U a partial
    # isometry on the same kernel but not T's polar factor: polar_isometry
    # must fail while polar_projection and polar_kernels pass.
    bundle = gen_instance(GeneratorConfig(seed=5, n=12, block_count=3))
    phase = np.exp(0.5j)
    planted_frames(monkeypatch, lambda v, l, sigma: (v, l * np.where(
        np.arange(sigma.size) == 0, phase, 1.0), sigma))
    statuses = {r.name: r.status for r in check_polar(CheckContext(bundle))}
    assert statuses["polar_isometry"] == "fail"
    assert statuses["polar_projection"] == statuses["polar_kernels"] == "pass"


def test_polar_kernels_read_one_on_a_rank_mismatch(monkeypatch):
    # A zero l_B drops a rank of the closed U alone: span v and T's kept
    # vectors still agree, so only the rank test can see that ker U is no
    # longer ker T. The gap is then 1, on the scale of T's kernel projection.
    for seed, zero_blocks in ((5, False), (6, True)):
        bundle = gen_instance(GeneratorConfig(seed=seed, n=12, block_count=3,
                                              zero_blocks=zero_blocks))
        with monkeypatch.context() as m:
            planted_frames(m, lambda v, l, sigma: (v, l * (np.arange(sigma.size) != 0), sigma))
            ctx = CheckContext(bundle)
            records = {r.name: r for r in check_polar(ctx)}
        assert records["polar_kernels"].status == "fail"
        assert records["polar_kernels"].residual == 1.0 / (1.0 + (~ctx.svd.keep).any())


def test_polar_kernels_read_zero_without_kernel_angles():
    # T = 0 has empty frames: no angle, and polar_kernels reads exactly 0.
    # A full-rank T has no kernel on either side: the gap is rounding.
    records = {r.name: r for r in check_polar(CheckContext(zero_operator_bundle()))}
    assert all(r.status == "pass" for r in records.values())
    assert records["polar_kernels"].residual == 0.0
    ctx = CheckContext(parse_instance(FULL_RANK_DOC))
    records = {r.name: r for r in check_polar(ctx)}
    assert ctx.svd.keep.all() and all(r.status == "pass" for r in records.values())
    assert records["polar_kernels"].residual <= 1e-15


def test_one_qr_per_context(monkeypatch):
    # func_calc, polar and aluthge read their frames off one batched QR of
    # [v, R_k] and [l, L_k], taken once per context, in whichever group runs
    # first.
    calls = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    for seed, order in ((11, (check_func_calc, check_polar, check_aluthge)),
                        (12, (check_aluthge, check_polar, check_func_calc))):
        ctx = CheckContext(gen_instance(GeneratorConfig(seed=seed, n=16, block_count=4)))
        for group in order:
            assert all(r.status == "pass" for r in group(ctx))
        k = int(ctx.svd.keep.sum())
        assert calls == [(2, 16, 2 * k)]
        calls.clear()


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
    # check_polar reads the closed U and |T| on their frames and forms U |T|
    # as one n x K by K x n product, so it builds no Sandwich matrix;
    # check_aluthge builds the one of the closed transform, and reads the
    # square of the half-power factor on the frames too.
    ctx = CheckContext(gen_instance(GeneratorConfig(seed=11, n=16, block_count=4)))
    _ = ctx.t
    built = []
    matrices = Sandwich.matrices

    def counting(sandwich):
        built.append(sandwich)
        return matrices(sandwich)

    monkeypatch.setattr(Sandwich, "matrices", counting)
    assert all(r.status == "pass" for r in check_polar(ctx))
    assert len(built) == 0
    assert all(r.status == "pass" for r in check_aluthge(ctx))
    assert len(built) == 1


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


def count_calls(monkeypatch, owner, name):
    """Replace the function owner.name with one that records the first
    argument of every call; returns the list of them."""
    calls = []
    original = getattr(owner, name)

    def counting(a, *args):
        calls.append(a)
        return original(a, *args)

    monkeypatch.setattr(owner, name, counting)
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


def test_full_suite_does_the_spectral_work_once(monkeypatch, tmp_path):
    # Over the rotation seeds 1..40 with --full: E M_u's block spread,
    # eigenvalue groups, numerical eigenvalues and eigenvalue set distance
    # are each taken once per instance, sd_eigs_match reads a residual of
    # its own, not the spectrum's, and no all-zero slice of a stack reaches
    # LAPACK (the measure axioms' additivity and empty set residuals are
    # exact zeros).
    builds = {name: count_getter(monkeypatch, AvgMult, name) for name in ("spread", "groups")}
    eigvals = count_calls(monkeypatch, np.linalg, "eigvals")
    distances = count_calls(monkeypatch, checks, "_eigvals_match_residual")
    zero_slices = []
    svd = np.linalg.svd

    def spying_svd(a, *args, **kwargs):
        if a.ndim == 3:
            zero_slices.extend(np.flatnonzero(~a.any(axis=(1, 2))))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spying_svd)
    report = tmp_path / "r.json"
    assert main(["suite", "--seeds", "1..40", "--full", "--report", str(report)]) == 0
    assert {name: len(calls) for name, calls in builds.items()} == {"spread": 40, "groups": 40}
    assert len(eigvals) == len(distances) == 40
    assert zero_slices == []
    residuals = {}
    for r in json.loads(report.read_text())["records"]:
        if r["name"] in ("spectrum", "sd_eigs_match") and r["status"] != "skip":
            residuals.setdefault(r["instance_digest"], {})[r["name"]] = r["residual"]
    decomposed = [pair for pair in residuals.values() if len(pair) == 2]
    assert len(residuals) == 40 and decomposed
    assert any(pair["sd_eigs_match"] != pair["spectrum"] for pair in decomposed)


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
    # The oracle side's norms are its largest |f(sigma_k^2)|, read off the
    # singular values: no oracle matrix reaches the kernel. Only the
    # residuals do, once each, as q x q matrices on their frames of K
    # closed and k oracle vectors (q = K + k < n here).
    kept = int(fresh.svd.keep.sum())
    assert len(sent) == 2 * len(calculus_test_functions())
    assert all(m.shape == (2 * kept, 2 * kept) for m in sent) and 2 * kept < fresh.instance.space.n


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
    # Every reference norm a check holds instead of taking it (the singular
    # values, ranks read off traces), as it passes it to op_deviations or
    # reads func_calc's scale, is the spectral norm of that reference
    # matrix.
    held = []
    original = checks.op_deviations

    def spy(a, b, b_norms):
        held.append((np.array(b), np.array(b_norms, dtype=float)))
        return original(a, b, b_norms)

    monkeypatch.setattr(checks, "op_deviations", spy)
    # func_calc holds its oracle norms as the scale of its frame residuals:
    # the oracle's factors are caught as SvdOracle hands them out, and the
    # norms as the check reads them through reference_scale.
    frames, scales = [], held_func_calc_norms(monkeypatch) if group is check_func_calc else []
    calc_frames = opalgebra.SvdOracle.calc_frames

    def spy_frames(self, values, f0):
        frames.append(calc_frames(self, values, f0))
        return frames[-1]

    monkeypatch.setattr(opalgebra.SvdOracle, "calc_frames", spy_frames)
    bundles = generated_bundles() + [zero_operator_bundle()]
    for bundle in bundles:
        group(CheckContext(bundle))
    held.extend((side, norms) for triple, norms in zip(frames, scales)
                for side in frame_matrices(*triple))
    assert len(held) >= len(bundles) // 3
    for b, norms in held:
        svd = [norm(m) for m in b]
        np.testing.assert_allclose(norms, svd, rtol=tol, atol=tol)


def test_func_calc_prunes_svds_on_the_dense_files(monkeypatch):
    # On the 15 n = 64 instances of the dense benchmark workload (seeds
    # 100000..100014, 2..16 blocks, the modes cycling) no n x n matrix
    # reaches an SVD in func_calc: each residual is read on its frame of
    # kept vectors, and every record is the dense reference's to 1e-14.
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(a.shape[-2:])
        return svd(a, *args, **kwargs)

    for bundle in dense_bundles():
        ctx = CheckContext(bundle)
        # T's one SVD is the context's, taken before func_calc runs.
        ctx.svd
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        records = check_func_calc(ctx)
        monkeypatch.setattr(np.linalg, "svd", svd)
        expected = dense_func_calc_residuals(ctx)
        assert all(r.status == "pass" for r in records)
        assert all(abs(r.residual - expected[r.name]) <= 1e-14 for r in records)
    assert shapes and all(max(shape) < 64 for shape in shapes)


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
    for symbol in random_complex(rng, (3, fp.block_count))[:, fp.block_of]:
        u = MeasurableFunction(phi.space, symbol)
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


def test_sd_projections_fail_an_oblique_projection(monkeypatch):
    # S P S^-1, S = I + 1e-3 N with N real antisymmetric, in place of one
    # spectral projection: idempotent to rounding but not self-adjoint, so
    # only the self-adjointness half of sd_projections can fail it.
    original = AvgMult.projections
    planted = []

    def oblique(self):
        p = original(self)
        n = p.shape[-1]
        a = np.random.default_rng(n).normal(size=(n, n))
        s = np.eye(n) + 1e-3 * (a - a.T)
        p[0] = s @ p[0] @ np.linalg.inv(s)
        planted.append(p[0])
        return p

    monkeypatch.setattr(AvgMult, "projections", oblique)
    for seed in range(5):
        ctx = CheckContext(gen_instance(GeneratorConfig(seed=seed, n=10, block_count=3,
                                                        measurable_u=True)))
        statuses = {r.name: r.status for r in check_spectral_decomp(ctx)}
        p = planted.pop()
        assert norm(p @ p - p) <= 1e-13 * (1.0 + norm(p))
        assert norm(p - p.conj().T) > 1e-6
        assert statuses["sd_projections"] == "fail"


def test_reconstruction_matches_per_round_reference():
    for bundle in spectral_bundles():
        ctx = CheckContext(bundle)
        [rec] = check_reconstruction(ctx)
        assert rec.status == "pass"
        assert rec.residual == pytest.approx(reference_reconstruction(ctx), rel=0, abs=1e-13)


def test_one_avg_mult_operator_per_instance(monkeypatch):
    # normality, spectrum and spectral_decomp share one matrix of E M_u,
    # one eigvals of it and one set distance from the eigenvalues, whether
    # or not the decomposition skips.
    built = count_getter(monkeypatch, AvgMult, "matrix")
    factored = count_calls(monkeypatch, np.linalg, "eigvals")
    compared = count_calls(monkeypatch, checks, "_eigvals_match_residual")
    for measurable_u, statuses in ((True, {"pass"}), (False, {"pass", "skip"})):
        ctx = CheckContext(gen_instance(GeneratorConfig(seed=23, n=12, block_count=4,
                                                        measurable_u=measurable_u)))
        records = [r for group in (check_normality, check_spectrum, check_spectral_decomp)
                   for r in group(ctx)]
        assert {r.status for r in records} == statuses
        assert built == [ctx.avg_mult]
        assert len(factored) == 1 and factored[0] is ctx.avg_mult.matrix
        assert compared == [ctx.avg_mult.eigenvalues]
        del built[:], factored[:], compared[:]


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
        f0, frames, coef = original(inst, fns)
        # Only the f(T* T) slice of the constant function 1, f(0) I, is
        # perturbed: f(0) becomes one row per product.
        f0 = np.stack((f0, f0))
        for k, f in enumerate(fns):
            if f(0.0) == f(3.0) == 1.0:
                f0[0, k] *= 1.0 + 1e-6
        return f0, frames, coef

    monkeypatch.setattr(checks, "closed_func_calc", perturbed)
    bundle = gen_instance(GeneratorConfig(seed=12, n=10, block_count=3))
    status = {r.name: r.status for r in check_func_calc(CheckContext(bundle))}
    assert status == {"func_calc_gram": "fail", "func_calc_cogram": "pass"}


def test_condexp_fails_on_a_planted_nan(monkeypatch):
    original = checks.cond_exp_values

    def planted(partition, values):
        # E of every complex sample function reads NaN at point 0.
        means = original(partition, values)
        if np.iscomplexobj(values):
            means[..., 0] = np.nan
        return means

    monkeypatch.setattr(checks, "cond_exp_values", planted)
    bundle = gen_instance(GeneratorConfig(seed=12, n=10, block_count=3))
    records = check_condexp(CheckContext(bundle))
    nan = {r.name for r in records if math.isnan(r.residual)}
    assert nan == {"ce_idempotent", "ce_range", "ce_module", "ce_jensen",
                   "ce_hoelder", "ce_selfadjoint"}
    assert {r.name for r in records if r.status == "fail"} == nan


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

# The first six files sit near T's rank cut: faint blocks, crossed
# aggregates, a faint singular value and a small norm. A cut on the
# quadratic aggregates, or an absolute floor, puts the closed forms and the
# oracle on different ranks there. six_point and faint_sigma are files of
# the edge table.
HARD_BUNDLES = {
    "six_point": lambda: edge_bundle("six-point"),
    "faint_block": faint_block_bundle,
    "crossed_aggregates": crossed_aggregates_bundle,
    "faint_sigma": lambda: edge_bundle("faint-sigma"),
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


def test_partial_isometry_matches_dense_reference():
    # The residual read off T's singular values is the dense
    # ||T T* T - T|| / max(1, ||T||), kept only here, to 1e-13 on the scale
    # max(1, residual), on the rotation seeds, the hard files and a partial
    # isometry with a block at sigma = 1e-12: below the rank cut, that
    # block is the whole residual.
    bundles = [gen_instance(rotation_config(seed)) for seed in range(1, 201)]
    bundles += [make() for make in HARD_BUNDLES.values()]
    bundles.append(parse_instance(
        '{"weights":[1,1,1,1],"partition":[[0,1],[2,3]],'
        '"u":[[1,0],[1,0],[1e-12,0],[1e-12,0]],"w":[[1,0],[1,0],[1,0],[1,0]]}'))
    for bundle in bundles:
        ctx = CheckContext(bundle)
        t = ctx.t
        expected = norm(t @ t.conj().T @ t - t) / max(1.0, norm(t))
        [record] = check_partial_isometry(ctx)
        assert abs(record.residual - expected) <= 1e-13 * max(1.0, expected)


# T = M_u on three singleton blocks, sigma = (1, 2, 3): no kernel, so the
# calculus never reads f(0), and exp(-t)'s norm is e^-1, not f(0) = 1.
FULL_RANK_DOC = (
    '{"weights":[1,2,3],"partition":[[0],[1],[2]],'
    '"u":[[1,0],[0,2],[-3,0]],"w":[[1,0],[1,0],[1,0]]}')


def test_thin_gram_calculus_matches_the_dense_one(monkeypatch):
    # Each record read on the thin frames against the dense reference,
    # kept only here, to 1e-14 on the rotation seeds, the hard files and a
    # full-rank T; the norms check_func_calc holds are the dense oracle
    # matrices' spectral norms, f(0) among them only when T has a kernel.
    held = held_func_calc_norms(monkeypatch)
    fns = [f for _, f in calculus_test_functions()]
    bundles = [gen_instance(rotation_config(seed)) for seed in range(1, 201)]
    bundles += [make() for make in HARD_BUNDLES.values()]
    bundles.append(parse_instance(FULL_RANK_DOC))
    for bundle in bundles:
        ctx = CheckContext(bundle)
        held.clear()
        records = check_func_calc(ctx)
        expected = dense_func_calc_residuals(ctx)
        assert all(abs(r.residual - expected[r.name]) <= 1e-14 for r in records)
        svd = ctx.svd
        spectrum = (np.where(svd.keep, svd.sigma, 0.0) ** 2).tolist()
        dense = np.asarray([[f(v) for v in spectrum] for f in fns], dtype=complex)
        for vectors in (svd.right_h.conj().T, svd.left):
            reference = (vectors * dense[:, None, :]) @ vectors.conj().T
            np.testing.assert_allclose(held[0], [norm(m) for m in reference],
                                       rtol=1e-12, atol=1e-12)
    # The last file is the full-rank T: exp(-t)'s norm there is e^-1.
    assert svd.keep.all() and held[0][-1] == pytest.approx(math.exp(-1.0), rel=1e-14)


def dense_polar_residuals(ctx):
    """The polar records read on frames and aluthge_root, from dense n x n
    matrices, kept only here: the closed U = M_{w_hat} E M_{u_hat}, |T| =
    M_{sigma conj(u_hat)} E M_{u_hat} and half-power factor as Sandwich
    matrices, against the oracle's L_k R_k* and R_k diag(sigma_k) R_k*,
    each norm from an n x n SVD, and the three kernels as dense
    projections."""
    inst, svd, t_norm = ctx.instance, ctx.svd, ctx.svd.norm
    u_hat, w_hat = inst.units
    u_c, abs_c, root_c = Sandwich(inst.partition, np.stack(
        (w_hat, inst.sigma * np.conj(u_hat), np.sqrt(inst.sigma) * np.conj(u_hat))),
        u_hat).matrices()
    rows = svd.right_h[svd.keep]
    u_o, abs_o = svd.left[:, svd.keep] @ rows, (rows.conj().T * svd.sigma[svd.keep]) @ rows
    s = np.linalg.svd(u_c, compute_uv=False)
    kernels = [kernel_projection(m) for m in (u_c, abs_c, ctx.t)]
    gaps = [norm(kernels[i] - kernels[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    return {
        "polar_abs": norm(abs_c - abs_o) / (1.0 + t_norm),
        "polar_isometry": norm(u_c - u_o) / (1.0 + (t_norm > 0.0)),
        "polar_projection": float(np.abs(s ** 4 - s ** 2).max()),
        "polar_kernels": max(gaps) / (1.0 + (~svd.keep).any()),
        "aluthge_root": norm(root_c @ root_c - abs_c) / (1.0 + t_norm),
    }


def dense_bundles():
    """The 15 n = 64 instances of the dense benchmark workload's first
    slot: seeds 100000..100014, 2..16 blocks, the modes cycling."""
    return [gen_instance(GeneratorConfig(seed=100_000 + i, n=64, block_count=2 + i % 15,
                                         **_MODES[i % 5])) for i in range(15)]


def test_thin_polar_matches_the_dense_one():
    # Each polar record read on the frames [v, R_k] and [l, L_k], and
    # aluthge_root on [v], against the dense reference to 1e-14 absolute on
    # the rotation seeds, the hard files and the dense n = 64 files.
    bundles = [gen_instance(rotation_config(seed)) for seed in range(1, 201)]
    bundles += [make() for make in HARD_BUNDLES.values()] + dense_bundles()
    for bundle in bundles:
        ctx = CheckContext(bundle)
        records = [r for group in (check_polar, check_aluthge) for r in group(ctx)]
        expected = dense_polar_residuals(ctx)
        assert all(r.status == "pass" for r in records)
        assert all(abs(r.residual - expected[r.name]) <= 1e-14
                   for r in records if r.name in expected), bundle


def test_sd_eigs_match_fails_on_swapped_eigenvalues(monkeypatch):
    # Two eigenvalues swapped against their projections: the spectrum as a
    # set is unchanged, so spectrum passes, but tr(P_k M) / tr(P_k) no
    # longer reads lambda_k, and sd_eigs_match must fail.
    original = AvgMult.eigenvalues.func

    def swapped(self):
        values = list(original(self))
        values[0], values[1] = values[1], values[0]
        return tuple(values)

    ctx = CheckContext(gen_instance(GeneratorConfig(seed=4, n=10, block_count=4,
                                                    measurable_u=True)))
    assert len(ctx.avg_mult.eigenvalues) >= 2
    assert all(r.status == "pass" for r in check_spectral_decomp(ctx))
    prop = cached_property(swapped)
    prop.__set_name__(AvgMult, "eigenvalues")
    monkeypatch.setattr(AvgMult, "eigenvalues", prop)
    ctx = CheckContext(ctx.bundle)
    statuses = {r.name: r.status for r in check_spectral_decomp(ctx)}
    assert statuses["sd_eigs_match"] == "fail"
    assert [r.status for r in check_spectrum(ctx)] == ["pass"]


def test_func_calc_fails_a_calculus_without_f0_on_the_kernel(monkeypatch):
    # A planted oracle that drops the f(0) I term, R_k diag(f(sigma_k^2))
    # R_k*, is right on a full-rank T and wrong by f(0) on any kernel:
    # exp(-t), with f(0) = 1, alone must fail both records there.
    monkeypatch.setattr(checks, "calculus_test_functions",
                        lambda: (("exp(-t)", lambda t: math.exp(-t)),))
    calc_frames = opalgebra.SvdOracle.calc_frames
    monkeypatch.setattr(opalgebra.SvdOracle, "calc_frames",
                        lambda self, values, f0: calc_frames(self, values, 0.0 * f0))
    full_rank = CheckContext(parse_instance(FULL_RANK_DOC))
    assert [r.status for r in check_func_calc(full_rank)] == ["pass", "pass"]
    kernel = CheckContext(gen_instance(GeneratorConfig(seed=5, n=8, block_count=3,
                                                       zero_blocks=True)))
    assert not kernel.svd.keep.all()
    assert [r.status for r in check_func_calc(kernel)] == ["fail", "fail"]


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


# Every record by the scale its residual is read against. The reference
# rule is opalgebra.reference_scale; the others are partial_isometry's
# max(1, ||T||), the ratios vanishing_meets and sm_mass_conservation take to
# their own sizes, the unscaled norms, and the 0/1 answers.
REFERENCE_SCALED = {
    "ce_idempotent", "ce_range", "ce_module", "ce_jensen", "ce_positive",
    "ce_hoelder", "ce_selfadjoint", "norm_formula", "vanishing_disjoint",
    "func_calc_gram", "func_calc_cogram", "polar_abs", "polar_isometry",
    "polar_factorization", "polar_kernels", "aluthge_closed", "aluthge_root",
    "normality", "spectrum", "sd_projections", "sd_reconstruction",
    "sd_eigs_match", "sm_reconstruction",
}


def test_the_reference_scale_is_one_rule(monkeypatch):
    # Doubling the rule in every module that binds reference_scale moves
    # every record on that rule (unless it reads exactly 0) and both --tol
    # decisions about E M_u, and nothing else: a scale written out at its
    # site, or a record that reads the rule by mistake, shows.
    # A block below T's rank cut, so vanishing_disjoint reads a residual.
    four = FiniteMeasureSpace([1.0] * 4)
    below_cut = InstanceBundle(WceInstance(
        Partition(four, [[0, 1], [2, 3]]),
        MeasurableFunction(four, [1.0, 1.0, 1e-12, 1e-12]), constant(four, 1.0)))
    bundles = [below_cut, *generated_bundles()[:12:3], *spectral_bundles()[2:12:3]]
    # The two --tol decisions about E M_u, each 1.5 tol on the reference
    # scale from its threshold: block means 3e-8 apart, and a block spread
    # of 3e-8, on a scale of about 2.
    space = FiniteMeasureSpace([1.0, 1.0])
    near = AvgMult(MeasurableFunction(space, [1.0, 1.0 + 3e-8]),
                   finest_partition(space), DEFAULT_TOL)
    spread = AvgMult(MeasurableFunction(space, [1.0, 1.0 + 6e-8]),
                     coarsest_partition(space), DEFAULT_TOL)

    def residuals():
        out = {}
        for bundle in bundles:
            ctx = CheckContext(bundle)
            for group in CHECK_GROUPS.values():
                out.update(((r.instance_digest, r.name), r.residual) for r in group(ctx))
        return out

    before = residuals()
    assert len(near.eigenvalues) == 2 and spread.projections() is None
    rule = opalgebra.reference_scale
    modules = [m for name, m in sys.modules.items() if name.startswith("wcelab")
               and getattr(m, "reference_scale", None) is rule]
    assert {opalgebra, checks, spectral} <= set(modules)
    for module in modules:
        monkeypatch.setattr(module, "reference_scale", lambda size: 2 * (1.0 + size))
    after = residuals()
    near, spread = (AvgMult(a.u, a.partition, a.tol) for a in (near, spread))
    assert len(near.eigenvalues) == 1 and spread.projections() is not None
    assert after.keys() == before.keys()
    measured = {name for (_, name), res in before.items() if res is not None}
    assert measured == {name for names in checks.RECORDS.values() for name in names}
    moved = set()
    for (digest, name), res in before.items():
        new = after[digest, name]
        if name not in REFERENCE_SCALED or res in (None, 0.0):
            assert new == res, (digest, name)
            continue
        moved.add(name)
        if name == "ce_selfadjoint":
            # Two-sided: |b| joins the scale of |a|, and only that doubles.
            assert new != res, (digest, name)
        else:
            # Each reference scale the residual reads halves it exactly;
            # vanishing_disjoint reads those of ||T|| and of max |g|.
            halvings = 2 if name == "vanishing_disjoint" else 1
            assert new == res / 2 ** halvings, (digest, name)
    # ce_positive and sm_reconstruction read exactly 0 on these bundles.
    assert moved == REFERENCE_SCALED - {"ce_positive", "sm_reconstruction"}
