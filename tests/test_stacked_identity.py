"""Bit identity of the stacked helpers against scalar references kept only
here: each helper that makes one numpy call where a loop over draws,
points, eigenvalues or blocks once ran must give exactly the loop's values
(np.array_equal, or == on floats), and must leave a seeded generator where
the loop left it. Two exceptions: the eigenvalue set distance, whose
np.abs may differ from the loop's Python abs in the last bit, and the
closed calculus, whose thin factors stand for the per-point sandwich to
rounding."""

import json
import math

import numpy as np
import pytest

from wcelab import checks, generator, spectral
from wcelab.checks import calculus_test_functions
from wcelab.condexp import Sandwich
from wcelab.generator import GeneratorConfig, gen_instance, rotation_config
from wcelab.instance_io import InstanceBundle, instance_digest, serialize_instance
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.wce import WceInstance, closed_func_calc

from conftest import frame_matrices, generated_partitions, random_complex
from test_checks import HARD_BUNDLES


def same_stream(a, b):
    """Whether two generators stand at the same point of their stream."""
    return a.bit_generator.state == b.bit_generator.state


def rotation_bundles(count=200):
    return [gen_instance(rotation_config(seed, with_point_map=True))
            for seed in range(1, count + 1)]


# ---------------------------------------------------------------------------
# Set distance of eigenvalues


def loop_eigvals_match(expected, computed):
    """The set distance as Python loops over abs of complex differences."""
    fwd = max(min(abs(e - c) for c in computed) for e in expected)
    bwd = max(min(abs(c - e) for e in expected) for c in computed)
    return max(fwd, bwd) / (1.0 + max(abs(z) for z in computed))


@pytest.mark.parametrize("expected, computed", [
    # The parts of a difference overflow: its modulus is inf.
    ([1e308 + 0j], [-1e308 + 0j]),
    # An infinite distance that no nearest pair takes leaves the residual finite.
    ([1e308 + 1e308j, 1 + 0j], [-1e308 - 1e308j, 1 + 0j]),
    # Finite parts whose modulus is beyond the float range.
    ([0j], [1.5e308 + 1.5e308j]),
    ([1.5e308 + 0j], [-1.5e307 - 1.5e308j]),
])
def test_eigvals_match_overflows_as_abs_does(expected, computed):
    try:
        want = loop_eigvals_match(expected, computed)
    except OverflowError:
        want = math.inf
    if math.isfinite(want):
        with np.errstate(all="raise"):
            assert checks._eigvals_match_residual(expected, computed) == \
                pytest.approx(want, rel=1e-15)
        return
    with np.errstate(all="raise"), pytest.raises(
            ValueError, match="an eigenvalue distance of E M_u is not finite"):
        checks._eigvals_match_residual(expected, computed)


def test_eigvals_match_takes_arrays_and_tuples():
    computed = np.linalg.eigvals(np.diag([1.0, 2.0 + 1j, 2.0 + 1j]).astype(complex))
    expected = (1 + 0j, 2 + 1j)
    assert checks._eigvals_match_residual(expected, computed) == \
        loop_eigvals_match(list(expected), [complex(z) for z in computed])


# ---------------------------------------------------------------------------
# Block reductions


def two_bincount_means(partition, values):
    """Block means as two bincounts, real then imaginary part, each divided
    by the block masses and joined as re + 1j * im."""
    v = np.asarray(values)
    w = partition.space.weights
    k = partition.block_count
    rows = v.size // partition.space.n
    bins = partition.block_of
    if v.ndim > 1:
        bins = (k * np.arange(rows)[:, None] + bins).ravel()

    def means(part):
        total = np.bincount(bins, (part * w).ravel(), k * rows)
        return total.reshape(v.shape[:-1] + (k,)) / partition.block_masses

    if np.iscomplexobj(v):
        return means(v.real) + 1j * means(v.imag)
    return means(v)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape", [(), (1,), (4,), (2, 3)])
def test_block_means_equal_two_bincounts(kind, shape):
    rng = np.random.default_rng(21)
    for partition in generated_partitions(40, seed0=2100, n_max=24):
        size = shape + (partition.space.n,)
        values = rng.normal(size=size) * 10.0 ** rng.uniform(-5, 5, size)
        if kind == "complex":
            values = values + 1j * rng.normal(size=size)
        means = partition.block_means(values)
        expected = two_bincount_means(partition, values)
        assert means.dtype == expected.dtype
        assert np.array_equal(means, expected)


def test_block_means_of_a_strided_stack():
    rng = np.random.default_rng(22)
    for partition in generated_partitions(10, seed0=2200):
        n = partition.space.n
        wide = random_complex(rng, 3 * n).reshape(n, 3).T
        assert np.array_equal(partition.block_means(wide), two_bincount_means(partition, wide))


def test_first_points_are_the_first_index_of_each_block():
    for partition in generated_partitions(60, seed0=2300, n_max=24):
        first = np.unique(partition.block_of, return_index=True)[1]
        assert np.array_equal(partition.first_points, first)
        assert not partition.first_points.flags.writeable


# ---------------------------------------------------------------------------
# Calculus per block


def per_point_func_calc(inst, fns, r):
    """One product of closed_func_calc with every test function evaluated
    at every point."""
    f0 = np.asarray([complex(f(0.0)) for f in fns])
    fp = np.asarray([[f(s * s) for s in inst.sigma.tolist()] for f in fns], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        d = (fp - f0[:, None]) * np.conj(r)
    stack = Sandwich(inst.partition, d, r).matrices()
    diag = np.arange(inst.space.n)
    stack[:, diag, diag] += f0[:, None]
    return stack


def test_func_calc_per_block_equals_per_point():
    # The factors, each f evaluated once per kept block, stand for the
    # per-point sandwich to rounding on the scale of its entries.
    eps = np.finfo(float).eps
    fns = tuple(f for _, f in calculus_test_functions())
    bundles = rotation_bundles() + [make() for make in HARD_BUNDLES.values()]
    for bundle in bundles:
        inst = bundle.instance
        for stack, r in zip(frame_matrices(*closed_func_calc(inst, fns)),
                            (inst.units[0], np.conj(inst.units[1]))):
            reference = per_point_func_calc(inst, fns, r)
            scale = 1.0 + np.abs(reference).max(axis=(1, 2), keepdims=True)
            assert (np.abs(stack - reference) <= 8 * eps * scale).all()


# ---------------------------------------------------------------------------
# Matrices of E M_u: Sandwich.matrices against E times the symbol


def spectral_bundles():
    """The rotation seeds with point maps, the hard files, and blockwise
    constant symbols with point maps, n = 2..32."""
    decomposable = [gen_instance(GeneratorConfig(seed=900 + n, n=n, block_count=1 + (900 + n) % n,
                                                 with_point_map=True, measurable_u=True))
                    for n in range(2, 33)]
    return rotation_bundles() + [make() for make in HARD_BUNDLES.values()] + decomposable


def test_avg_mult_matrix_is_e_times_u():
    for bundle in spectral_bundles():
        inst = bundle.instance
        matrix = spectral.AvgMult(inst.u, inst.partition, checks.DEFAULT_TOL).matrix
        expected = inst.partition.cond_exp_matrix * inst.u.values[None, :]
        assert matrix.dtype == expected.dtype and np.array_equal(matrix, expected)


def test_projection_stack_is_e_times_level_indicators():
    decomposed = 0
    for bundle in spectral_bundles():
        inst = bundle.instance
        avg_mult = spectral.AvgMult(inst.u, inst.partition, checks.DEFAULT_TOL)
        stack = avg_mult.projections()
        if stack is None:
            continue
        decomposed += 1
        reps, group = avg_mult.groups
        e = inst.partition.cond_exp_matrix
        projections = []
        for lam in avg_mult.eigenvalues[:len(reps) - 1]:
            level = np.array([reps[group[b]] == lam for b in inst.partition.block_of])
            projections.append(level[:, None] * e)
        expected = np.array(projections).reshape(-1, *e.shape)
        if avg_mult.has_kernel:
            kernel = np.eye(inst.space.n) - expected.sum(axis=0)
            expected = np.concatenate((expected, kernel[None]))
        assert stack.dtype == expected.dtype and np.array_equal(stack, expected)
    assert decomposed > 60


def test_reconstruction_direct_is_e_times_symbols(monkeypatch):
    compared = []
    deviations = checks.op_deviations

    def spying(a, b, *args):
        compared.append(b)
        return deviations(a, b, *args)

    monkeypatch.setattr(checks, "op_deviations", spying)
    for bundle in rotation_bundles(60):
        ctx = checks.CheckContext(bundle)
        checks.check_reconstruction(ctx)
        fibers = bundle.point_map.partition
        rng = ctx.rng("reconstruction")
        symbols = random_complex(rng, (3, fibers.block_count))[:, fibers.block_of]
        expected = fibers.cond_exp_matrix[None] * symbols[:, None, :]
        direct = compared.pop()
        assert direct.dtype == expected.dtype and np.array_equal(direct, expected)


# ---------------------------------------------------------------------------
# Generator and serialization


def float_path_serialize(bundle):
    """The instance document with every number passed through float()."""
    inst = bundle.instance
    doc = {
        "weights": [float(x) for x in inst.space.weights],
        "partition": [list(b) for b in inst.partition.blocks],
        "u": [[float(z.real), float(z.imag)] for z in inst.u.values],
        "w": [[float(z.real), float(z.imag)] for z in inst.w.values],
    }
    if inst.space.labels is not None:
        doc["labels"] = list(inst.space.labels)
    if bundle.point_map is not None:
        doc["phi"] = list(bundle.point_map.images)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_serialize_equals_float_path():
    sp = FiniteMeasureSpace([0.1, 1e-300, 1e300], labels=["a", "b", "c"])
    part = Partition(sp, [[0, 2], [1]])
    signed = InstanceBundle(WceInstance(
        part, MeasurableFunction(sp, [-0.0, complex(0.0, -0.0), 1 / 3]),
        MeasurableFunction(sp, [5e-324, -1.7976931348623157e308, 1 + 1e-16j])))
    bundles = rotation_bundles() + [make() for make in HARD_BUNDLES.values()] + [signed]
    for bundle in bundles:
        assert serialize_instance(bundle) == float_path_serialize(bundle)
    assert '"u":[[-0.0,0.0],[0.0,-0.0]' in serialize_instance(signed)


def loop_random_partition(rng, n, k):
    perm = rng.permutation(n)
    assign = np.empty(n, dtype=np.intp)
    assign[perm[:k]] = np.arange(k)
    if n > k:
        assign[perm[k:]] = rng.integers(0, k, size=n - k)
    return [sorted(int(i) for i in np.flatnonzero(assign == b)) for b in range(k)]


def test_random_partition_equals_per_block_scan():
    for seed in range(200):
        n = 2 + seed % 63
        k = 1 + (seed * 31) % n
        one, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        blocks = generator._random_partition(one, n, k)
        assert blocks == loop_random_partition(ref, n, k)
        assert all(type(i) is int for b in blocks for i in b)
        assert same_stream(one, ref)


def loop_apply_floor(rng, values, blocks, weights, skip, blockwise):
    """_apply_floor with each block's aggregate taken from its own values."""
    lo, hi = generator.MAGNITUDE_RANGE
    floor = generator._AGGREGATE_FLOOR_FRACTION * hi * hi
    redraw_lo = max(lo, 0.25 * hi)
    for k, b in enumerate(blocks):
        if k in skip:
            continue
        aggregate = float(np.sum(np.abs(values[b]) ** 2 * weights[b]) / weights[b].sum())
        if aggregate < floor:
            if blockwise:
                values[b] = generator._draw_values(rng, 1, redraw_lo, hi)[0]
            else:
                values[b] = generator._draw_values(rng, len(b), redraw_lo, hi)


def test_apply_floor_equals_per_block_aggregates():
    redrawn = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 40
        k = 1 + (seed * 7) % n
        weights = rng.uniform(0.1, 10.0, n)
        blocks = loop_random_partition(rng, n, k)
        # Magnitudes around the floor, so some blocks are redrawn.
        values = random_complex(rng, n, cap=0.5)
        skip = {b for b in range(k) if rng.random() < 0.2}
        blockwise = bool(seed % 2)
        one, ref = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
        got, expected = values.copy(), values.copy()
        generator._apply_floor(one, got, blocks, weights, skip, blockwise)
        loop_apply_floor(ref, expected, blocks, weights, skip, blockwise)
        assert np.array_equal(got, expected)
        assert same_stream(one, ref)
        redrawn += int(not np.array_equal(got, values))
    assert redrawn > 50


@pytest.mark.parametrize("cfg, digest", [
    (GeneratorConfig(seed=1, n=64, block_count=4),
     "f477f3a451a1cda1453a52548c19cd015393fa32de79cdc1ed0d74e629ba660f"),
    (GeneratorConfig(seed=7, n=24, block_count=9, measurable_u=True,
                     partial_isometry=True, with_point_map=True),
     "ad83af18b92369faa7770a25698cc91876f5c31389a8ffd8335fdec70fd06a5c"),
    (GeneratorConfig(seed=12, n=30, block_count=6, zero_blocks=True),
     "96b34b9795e966f218b83c5ece1c8eb207113937679162216d7fb2a72a38914e"),
    (GeneratorConfig(seed=3, n=5, block_count=2, constant_u=True, partial_isometry=True),
     "d5c4acccd8dab314e1d7dff60ccdf850d5cbd70cc13c8a00342d08da2921cf2c"),
])
def test_generated_instance_digest_is_pinned(cfg, digest):
    # Digests of the per-element generator and serializer: the stacked
    # ones must write the same bytes.
    assert instance_digest(serialize_instance(gen_instance(cfg))) == digest
