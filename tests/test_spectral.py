from functools import cached_property

import numpy as np
import pytest

from wcelab import spectral
from wcelab.checks import DEFAULT_TOL, RECORDS, CheckContext, check_measure_axioms
from wcelab.generator import GeneratorConfig, gen_instance
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.spectral import (
    AvgMult,
    PointMap,
    check_spectral_axioms,
    pushforward_density,
)

from conftest import (
    constant,
    declared_normal,
    deviation,
    finest_partition,
    inner,
    norm,
    perturb_nonmeasurable,
    point_matrix,
    random_complex,
)

TOL = DEFAULT_TOL


@pytest.fixture
def uniform4():
    sp = FiniteMeasureSpace([1.0] * 4)
    return sp, Partition(sp, [[0, 1], [2, 3]])


AXIOMS = ("proj", "empty", "full", "intersect", "additive")


def frame_residuals(residuals, on_subspace):
    """One frame's residuals out of check_spectral_axioms' record-name
    dict, keyed by axiom; only the fiber subspace has "full"."""
    frame = "subspace" if on_subspace else "ambient"
    return {a: residuals[f"sm_{a}_{frame}"] for a in AXIOMS
            if f"sm_{a}_{frame}" in residuals}


def max_frame_residual(phi, on_subspace):
    return max(frame_residuals(check_spectral_axioms(phi), on_subspace).values())


def set_value(phi, members):
    """The matrix of measure(S) for one set S of target points."""
    mask = np.zeros(phi.space.n, dtype=bool)
    mask[list(members)] = True
    return phi.values(mask[None])[0]


def reconstructed(phi, u):
    """sum_s v(s) measure({s}) for the fiber-measurable symbol u, where
    v o phi = u."""
    return phi.reconstruct(u.values[None])[0]


def commutator_norm(u, partition):
    m = AvgMult(u, partition, TOL).matrix
    adj = m.conj().T
    return norm(m @ adj - adj @ m)


class TestNormality:
    def test_blockwise_constant_is_normal(self, uniform4):
        sp, p = uniform4
        u = MeasurableFunction(sp, [5, 5, 7, 7])
        assert declared_normal(u, p)
        assert commutator_norm(u, p) < 1e-13

    def test_nonconstant_is_not_normal(self, uniform4):
        sp, p = uniform4
        u = MeasurableFunction(sp, [5, 6, 7, 7])
        assert not declared_normal(u, p)
        assert commutator_norm(u, p) > 1e-3

    def test_finest_always_normal(self, rng):
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5])
        u = MeasurableFunction(sp, random_complex(rng, 3))
        assert declared_normal(u, finest_partition(sp))
        assert commutator_norm(u, finest_partition(sp)) < 1e-12

    def test_closed_commutator_norm(self):
        # ||[E M_u, (E M_u)*]|| is the largest sqrt(E|u - E u|^2) sqrt(E|u|^2)
        # over the blocks.
        for seed in range(40, 50):
            inst = gen_instance(GeneratorConfig(seed=seed, n=3 + seed % 12,
                                                block_count=1 + seed % 3)).instance
            avg_mult = AvgMult(inst.u, inst.partition, TOL)
            spread, rms = avg_mult.spread
            closed = float((spread * rms).max())
            assert closed == pytest.approx(commutator_norm(inst.u, inst.partition),
                                           rel=1e-12)
            m_norm = norm(avg_mult.matrix)
            assert float(rms.max()) == pytest.approx(m_norm, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    def test_spread_of_an_extreme_symbol_is_exact(self, uniform4, scale):
        # |u|^2 overflows at 1e160 and underflows at 1e-200; the spread is
        # taken on u over its block RMS, so neither happens.
        sp, p = uniform4
        u = MeasurableFunction(sp, scale * np.array([1, 3, 2, 2]))
        with np.errstate(over="raise", under="raise"):
            spread, rms = AvgMult(u, p, TOL).spread
        np.testing.assert_allclose(spread, [scale, 0.0], rtol=1e-14)
        np.testing.assert_allclose(rms, [np.sqrt(5.0) * scale, 2.0 * scale], rtol=1e-14)


class TestSpectrum:
    def test_unit_symbol(self, uniform4):
        sp, p = uniform4
        u = constant(sp, 1.0)
        assert set(AvgMult(u, p, TOL).eigenvalues) == {0j, 1 + 0j}

    def test_block_means(self, uniform4):
        # block means of (1, 3, 0, 8) are 2 and 4
        sp, p = uniform4
        u = MeasurableFunction(sp, [1, 3, 0, 8])
        spec = set(AvgMult(u, p, TOL).eigenvalues)
        assert spec == {0j, 2 + 0j, 4 + 0j}
        eigs = np.linalg.eigvals(AvgMult(u, p, TOL).matrix)
        for z in spec:
            assert min(abs(z - e) for e in eigs) < 1e-12
        for e in eigs:
            assert min(abs(z - e) for z in spec) < 1e-12

    def test_zero_symbol(self, uniform4):
        sp, p = uniform4
        u = constant(sp, 0.0)
        assert set(AvgMult(u, p, TOL).eigenvalues) == {0j}

    def test_zero_dropped_when_invertible(self):
        # On the finest partition E M_u = M_u: 0 is in the spectrum exactly
        # when u vanishes at a point, up to the grouping tolerance.
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5])
        for values, spectrum in (([3, 5, 5], {3, 5}), ([3, 5, 0], {0, 3, 5}),
                                 ([3, 5, 1e-9], {0, 3, 5})):
            u = MeasurableFunction(sp, values)
            avg_mult = AvgMult(u, finest_partition(sp), TOL)
            assert set(avg_mult.eigenvalues) == spectrum
            assert len(avg_mult.eigenvalues) == len(avg_mult.projections())


    def test_zero_rule_matches_pointwise_reference(self):
        # On the finest partition E M_u = M_u is invertible exactly when
        # |u| > tol (1 + max |u|) at every point. The spectrum drops 0, and
        # the decomposition its kernel projection, on that one condition;
        # the nonzero eigenvalues come sorted by value, then 0.
        rng = np.random.default_rng(77)
        for trial in range(300):
            n = 1 + trial % 8
            sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, n))
            scale = rng.choice([1.0, 1e-9, 0.0], size=n, p=[0.8, 0.1, 0.1])
            u = MeasurableFunction(sp, scale * random_complex(rng, n))
            umax = np.abs(u.values).max()
            for tol in (1e-8, 1e-6, 1e-4):
                invertible = bool(np.all(np.abs(u.values) > tol * (1.0 + umax)))
                avg_mult = AvgMult(u, finest_partition(sp), tol)
                spectrum = avg_mult.eigenvalues
                nonzero = sorted((z for z in spectrum if z != 0),
                                 key=lambda z: (z.real, z.imag))
                assert list(spectrum) == nonzero + ([] if invertible else [0j])
                assert len(avg_mult.projections()) == len(spectrum)


class TestSpectralDecomposition:
    def test_two_level_example(self, uniform4):
        sp, p = uniform4
        u = MeasurableFunction(sp, [2, 2, 5, 5])
        avg_mult = AvgMult(u, p, TOL)
        assert [complex(z) for z in avg_mult.eigenvalues] == [2 + 0j, 5 + 0j, 0j]
        # P_{lambda=2} restricts to block {0,1} then averages.
        expected = np.zeros((4, 4))
        expected[0, :2] = 0.5
        expected[1, :2] = 0.5
        stack = avg_mult.projections()
        np.testing.assert_allclose(stack[0], expected, atol=1e-14)
        for proj in stack[:2]:
            assert round(float(np.trace(proj).real)) == 1

    def test_constant_symbol(self):
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5])
        p = Partition(sp, [[0, 1], [2]])
        u = constant(sp, 3.0)
        avg_mult = AvgMult(u, p, TOL)
        assert [complex(z) for z in avg_mult.eigenvalues] == [3 + 0j, 0j]
        assert deviation(avg_mult.projections()[0], p.cond_exp_matrix) < 1e-13

    def test_zero_symbol(self, uniform4):
        sp, p = uniform4
        u = constant(sp, 0.0)
        avg_mult = AvgMult(u, p, TOL)
        assert [complex(z) for z in avg_mult.eigenvalues] == [0j]
        np.testing.assert_allclose(avg_mult.projections()[0], np.eye(4), atol=1e-14)

    def test_invariants_on_random_instances(self, rng):
        for seed in range(60, 70):
            inst = gen_instance(GeneratorConfig(
                seed=seed, n=6 + seed % 8, block_count=2 + seed % 3,
                measurable_u=True)).instance
            avg_mult = AvgMult(inst.u, inst.partition, TOL)
            projs = avg_mult.projections()
            # The projections, the kernel's included, are real.
            assert projs.dtype == np.float64
            assert len(projs) == len(avg_mult.eigenvalues)
            m = avg_mult.matrix
            n = inst.space.n
            recon = np.zeros((n, n), dtype=complex)
            total_rank = 0
            for lam, proj in zip(avg_mult.eigenvalues, projs):
                assert deviation(proj @ proj, proj) < 1e-10
                assert norm(proj - proj.conj().T) < 1e-10
                # On point functions: <P f, g>_mu = <f, P g>_mu.
                f, g = random_complex(rng, n), random_complex(rng, n)
                p_pt = point_matrix(inst.space, proj)
                lhs = inner(inst.space, p_pt @ f, g)
                assert abs(lhs - inner(inst.space, f, p_pt @ g)) < 1e-10 * (1 + abs(lhs))
                recon += lam * proj
                total_rank += round(float(np.trace(proj).real))
            for i in range(len(projs)):
                for j in range(i + 1, len(projs)):
                    assert norm(projs[i] @ projs[j]) < 1e-10
            assert deviation(recon, m) < 1e-10
            assert total_rank == n

    def test_rejects_nonnormal(self, uniform4):
        sp, p = uniform4
        assert AvgMult(MeasurableFunction(sp, [1, 2, 3, 4]), p, TOL).projections() is None


class TestPointMapBasics:
    def test_identity_fibers(self):
        sp = FiniteMeasureSpace([1.0, 2.0, 3.0])
        phi = PointMap(sp, (0, 1, 2))
        assert phi.partition.block_count == sp.n
        np.testing.assert_allclose(pushforward_density(phi).values, [1, 1, 1])

    def test_constant_map(self):
        sp = FiniteMeasureSpace([1.0, 3.0])
        phi = PointMap(sp, (0, 0))
        assert phi.partition.block_count == 1
        np.testing.assert_allclose(pushforward_density(phi).values, [4, 0])

    def test_example_fibers_and_density(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        assert phi.partition.blocks == ((0, 1), (2,))
        np.testing.assert_allclose(pushforward_density(phi).values, [2, 0, 1])

    def test_mass_conservation(self, rng):
        sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, 9))
        phi = PointMap(sp, tuple(int(i) for i in rng.integers(0, 9, 9)))
        h = pushforward_density(phi)
        assert np.isclose(
            np.sum(h.values.real * sp.weights), sp.total_mass, rtol=1e-13
        )

    def test_out_of_range_rejected(self):
        sp = FiniteMeasureSpace([1.0, 1.0])
        with pytest.raises(ValueError):
            PointMap(sp, (0, 2))


class TestSpectralMeasure:
    def test_empty_set(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        assert norm(set_value(phi, ())) == 0.0

    def test_whole_set_is_fiber_average(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        e = phi.partition.cond_exp_matrix
        assert deviation(set_value(phi, range(3)), e) < 1e-14

    def test_singleton_example(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        m = set_value(phi, (0,))
        expected = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
        np.testing.assert_allclose(point_matrix(sp, m), expected, atol=1e-15)
        assert deviation(m @ m, m) < 1e-14
        assert norm(m - m.conj().T) < 1e-14

    def test_summation_matches_direct(self, rng):
        sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, 6))
        phi = PointMap(sp, tuple(int(i) for i in rng.integers(0, 6, 6)))
        members = (0, 2, 5)
        total = sum(
            (set_value(phi, (s,)) for s in members),
            np.zeros((6, 6), dtype=complex),
        )
        np.testing.assert_allclose(total, set_value(phi, members), atol=1e-15)


class TestSpectralAxioms:
    def test_identity_map_ambient(self):
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5])
        phi = PointMap(sp, (0, 1, 2))
        assert max_frame_residual(phi, on_subspace=False) <= 1e-12
        # An injective map sends the whole set to the identity.
        whole = set_value(phi, range(3))
        assert norm(whole - np.eye(3)) <= 1e-12

    def test_noninjective_subspace(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        assert max_frame_residual(phi, on_subspace=True) <= 1e-12

    def test_real_measure_values_survive_a_second_run(self):
        # The measure values are real stacks, and for a real array v.conj()
        # is v itself: an adjoint difference taken in place would overwrite
        # the values the later axioms read, and every intersection and
        # additivity residual would be of order one.
        bundle = gen_instance(GeneratorConfig(seed=13, n=9, block_count=3,
                                              with_point_map=True))
        phi = bundle.point_map
        assert len(phi.fibers) < phi.space.n
        first = check_spectral_axioms(phi)
        assert list(first) == [name for name in RECORDS["measure_axioms"]
                               if name != "sm_mass_conservation"]
        assert check_spectral_axioms(phi) == first
        ctx = CheckContext(bundle)
        records = check_measure_axioms(ctx)
        assert len(records) == 10
        assert all(r.residual <= 1e-12 for r in records), [r.to_doc() for r in records]
        assert [r.to_doc() for r in check_measure_axioms(ctx)] == [r.to_doc() for r in records]

    def test_noninjective_ambient_identity_fails(self):
        # On the ambient space the whole set maps to E_phi, 1 away from the
        # identity when phi is not injective, so only the fiber subspace
        # records the identity axiom.
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        whole = set_value(phi, range(3))
        assert norm(whole - np.eye(3)) == pytest.approx(1.0)
        ambient = frame_residuals(check_spectral_axioms(phi), False)
        assert "full" not in ambient
        assert max(ambient.values()) <= 1e-9


def reference_spectral_axioms(phi, on_subspace, n_random=12, seed=0):
    """Per-set loop over the seeded set family: one measure value and one
    spectral norm per set. Returns the residuals keyed by axiom (see
    AXIOMS)."""
    n = phi.space.n
    rng = np.random.default_rng(seed)

    if on_subspace:
        # The weighted-orthonormal indicators of the fibers, on point values.
        fp = phi.partition
        basis = (fp.block_of[:, None] == np.arange(fp.block_count)[None, :]) / np.sqrt(
            fp.block_masses)[None, :]
        db = phi.space.weights[:, None] * basis
        dim = basis.shape[1]

        def rep(m):
            return db.conj().T @ point_matrix(phi.space, m) @ basis

    else:
        dim = n

        def rep(m):
            s = phi.space.sqrt_weights
            return point_matrix(phi.space, m) * s[:, None] / s[None, :]

    def dist(x, y):
        return float(np.linalg.norm(x - y, 2))

    sets = [frozenset((s,)) for s in range(n)]
    for _ in range(n_random):
        keep = rng.random(n) < rng.uniform(0.2, 0.8)
        sets.append(frozenset(int(i) for i in np.flatnonzero(keep)))

    proj_res = 0.0
    for s in sets:
        m = rep(set_value(phi, s))
        proj_res = max(proj_res, dist(m @ m, m), dist(m.conj().T, m))

    empty_res = float(np.linalg.norm(rep(set_value(phi, ())), 2))
    full_res = dist(rep(set_value(phi, range(n))), np.eye(dim))

    inter_res = 0.0
    pairs = [(sets[i], sets[j]) for i, j in
             rng.integers(0, len(sets), size=(max(n_random, 4), 2))]
    pairs += [(sets[0], frozenset(range(n))), (sets[0], frozenset())]
    for s1, s2 in pairs:
        lhs = rep(set_value(phi, s1 & s2))
        rhs = rep(set_value(phi, s1)) @ rep(set_value(phi, s2))
        inter_res = max(inter_res, dist(lhs, rhs))

    add_res = 0.0
    for _ in range(max(n_random, 4)):
        whole = sets[int(rng.integers(0, len(sets)))]
        parts = int(rng.integers(2, 5))
        assignment = rng.integers(0, parts, size=n)
        pieces = [frozenset(i for i in whole if assignment[i] == p) for p in range(parts)]
        total = sum((rep(set_value(phi, p)) for p in pieces), np.zeros((dim, dim), complex))
        add_res = max(add_res, dist(rep(set_value(phi, whole)), total))

    return dict(zip(AXIOMS, (proj_res, empty_res, full_res, inter_res, add_res)))


def generated_point_maps(count=30, seed0=700):
    """Deterministic point maps from the generator, n = 2..24."""
    maps = []
    for s in range(seed0, seed0 + count):
        n = 2 + s % 23
        cfg = GeneratorConfig(seed=s, n=n, block_count=1 + (s * 31) % n,
                              with_point_map=True)
        maps.append(gen_instance(cfg).point_map)
    return maps


def perturb_fiber_average(monkeypatch):
    """Patch the one builder of E's matrix: its first nonzero off-diagonal
    entry is scaled by 1 + 1e-6, so it is no longer a projection. Partitions
    made after the patch get the perturbed matrix."""
    build = Partition.cond_exp_matrix.func

    def perturbed(partition):
        m = build(partition).copy()
        off = np.argwhere((m != 0) & ~np.eye(len(m), dtype=bool))[0]
        m[tuple(off)] *= 1 + 1e-6
        return m

    prop = cached_property(perturbed)
    prop.__set_name__(Partition, "cond_exp_matrix")
    monkeypatch.setattr(Partition, "cond_exp_matrix", prop)


def grown_by_size(phi, measure):
    """A set function that is not additive: each value of measure scaled by
    1 + 1e-6 times the number of points mapped into its set."""

    def grown(sets):
        size = sets[:, phi.image_index].sum(axis=1)[:, None, None]
        return measure(sets) * (1 + 1e-6 * size)

    return grown


def grow_frame_measures(monkeypatch):
    """Patch both frames' set function of check_spectral_axioms to
    grown_by_size."""
    frame_measure = spectral._frame_measure
    monkeypatch.setattr(spectral, "_frame_measure", lambda phi, on_subspace: grown_by_size(
        phi, frame_measure(phi, on_subspace)))


def per_frame_spectral_axioms(phi, on_subspace, n_random=12, seed=0, grown=False):
    """The stacked axioms one frame per call, each call drawing the seeded
    set family anew, with one np.linalg.norm per residual stack; grown
    takes the measure through grown_by_size. Returns the residuals keyed by
    axiom (see AXIOMS)."""
    n = phi.space.n
    rng = np.random.default_rng(seed)
    images = phi.image_index
    frame = phi.partition.cond_exp_matrix
    if on_subspace:
        basis = spectral._fiber_basis(phi.partition)
        dim = basis.shape[1]
        rows = basis.T @ frame

        def measure(sets):
            return (rows[None] * sets[:, images][:, None, :]) @ basis

    else:
        dim = n

        def measure(sets):
            return frame[None] * sets[:, images][:, None, :]

    if grown:
        measure = grown_by_size(phi, measure)

    def max_norm(stack):
        return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())

    sets, pairs = spectral._axiom_sets(rng, n, n_random)
    k = len(sets)
    family = np.vstack([sets, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
    values = measure(family)
    v = values[:k]
    proj_res = max(max_norm(v @ v - v), max_norm(v.conj().transpose(0, 2, 1) - v))
    empty_res = max_norm(values[k:k + 1])
    full_res = max_norm(values[k + 1:] - np.eye(dim))
    i, j = np.vstack([pairs, [[0, k + 1], [0, k]]]).T
    inter_res = max_norm(measure(family[i] & family[j]) - values[i] @ values[j])
    wholes, pieces = [], []
    for _ in range(max(n_random, 4)):
        whole = int(rng.integers(0, k))
        parts = int(rng.integers(2, 5))
        assignment = rng.integers(0, parts, size=n)
        wholes.append(whole)
        pieces.append(sets[whole] & (assignment[None, :] == np.arange(parts)[:, None]))
    starts = np.cumsum([0] + [len(p) for p in pieces[:-1]])
    sums = np.add.reduceat(measure(np.vstack(pieces)), starts, axis=0)
    add_res = max_norm(sums - values[wholes])
    return dict(zip(AXIOMS, (proj_res, empty_res, full_res, inter_res, add_res)))


def small_point_maps():
    """Two random point maps for every n = 1..24, plus the identity map."""
    rng = np.random.default_rng(2024)
    maps = []
    for n in range(1, 25):
        sp = FiniteMeasureSpace(rng.uniform(0.1, 10.0, n))
        maps.append(PointMap(sp, tuple(range(n))))
        for _ in range(2):
            maps.append(PointMap(sp, tuple(int(i) for i in rng.integers(0, n, n))))
    return maps


class TestBatchedSpectralAxioms:
    def test_set_family_and_pairs_pinned(self):
        sets, pairs = spectral._axiom_sets(np.random.default_rng(7), 5, 3)
        np.testing.assert_array_equal(sets[:5], np.eye(5, dtype=bool))
        np.testing.assert_array_equal(
            sets[5:].astype(int), [[0, 0, 0, 1, 1], [0, 1, 0, 1, 1], [1, 1, 1, 1, 1]])
        np.testing.assert_array_equal(pairs, [[5, 4], [2, 7], [3, 1], [6, 1]])

    def test_set_family_matches_reference_draw_order(self):
        for seed in range(200):
            n, n_random = 2 + seed % 23, seed % 14
            rng = np.random.default_rng(seed)
            points = rng.random((n_random, n))
            ref_sets = points < rng.uniform(0.2, 0.8, (n_random, 1))
            ref_pairs = rng.integers(0, n + n_random, size=(max(n_random, 4), 2))
            one = np.random.default_rng(seed)
            sets, pairs = spectral._axiom_sets(one, n, n_random)
            np.testing.assert_array_equal(sets[n:], np.reshape(ref_sets, (n_random, n)))
            np.testing.assert_array_equal(pairs, ref_pairs)
            # The additivity rounds draw on from where the family stopped.
            assert one.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("on_subspace", [False, True])
    def test_matches_per_set_reference(self, on_subspace):
        for k, phi in enumerate(generated_point_maps()):
            batched = frame_residuals(check_spectral_axioms(phi, seed=k), on_subspace)
            reference = reference_spectral_axioms(phi, on_subspace, seed=k)
            np.testing.assert_allclose([batched[a] for a in batched],
                                       [reference[a] for a in batched], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_shared_draw_matches_per_frame_reference_exactly(self, monkeypatch, perturbed):
        if perturbed:
            # A set function that is not additive, so the additivity
            # residual depends on which wholes and pieces were drawn; for
            # the true measure it is exactly 0 whatever the draw.
            grow_frame_measures(monkeypatch)
        for k, phi in enumerate(small_point_maps()):
            residuals = check_spectral_axioms(phi, seed=k)
            for on_subspace in (False, True):
                frame = frame_residuals(residuals, on_subspace)
                reference = per_frame_spectral_axioms(phi, on_subspace, seed=k,
                                                      grown=perturbed)
                assert frame == {a: reference[a] for a in frame}

    def test_measure_axioms_draw_the_family_once(self, monkeypatch):
        draws = []
        axiom_sets = spectral._axiom_sets

        def counting(rng, n, n_random):
            draws.append(n)
            return axiom_sets(rng, n, n_random)

        monkeypatch.setattr(spectral, "_axiom_sets", counting)
        for seed in (13, 14):
            ctx = CheckContext(gen_instance(GeneratorConfig(
                seed=seed, n=9, block_count=3, with_point_map=True)))
            assert all(r.status == "pass" for r in check_measure_axioms(ctx))
        assert draws == [9, 9]

    @pytest.mark.parametrize("on_subspace", [False, True])
    def test_perturbed_fiber_average_fails(self, monkeypatch, on_subspace):
        sp = FiniteMeasureSpace([1.0, 2.0, 1.5, 0.5, 3.0])
        phi = PointMap(sp, (1, 1, 1, 4, 4))
        assert max_frame_residual(phi, on_subspace) <= 1e-12
        perturb_fiber_average(monkeypatch)
        # phi caches its fiber partition: a new point map gets a new one.
        frame = frame_residuals(check_spectral_axioms(PointMap(sp, phi.images)), on_subspace)
        assert frame["proj"] > 1e-9
        assert frame["intersect"] > 1e-9
        # Masking columns is linear in the set indicator, so a wrong
        # fiber average still adds up exactly.
        assert frame["additive"] < 1e-12

    @pytest.mark.parametrize("on_subspace", [False, True])
    def test_nonadditive_set_function_fails(self, monkeypatch, on_subspace):
        sp = FiniteMeasureSpace([1.0, 2.0, 1.5, 0.5, 3.0])
        phi = PointMap(sp, (1, 1, 1, 4, 4))
        grow_frame_measures(monkeypatch)
        frame = frame_residuals(check_spectral_axioms(phi), on_subspace)
        assert frame["proj"] > 1e-9
        assert frame["intersect"] > 1e-9
        assert frame["additive"] > 1e-9


class TestReconstruction:
    def test_unit_symbol(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        u = constant(sp, 1.0)
        rebuilt = reconstructed(phi, u)
        e = phi.partition.cond_exp_matrix
        assert deviation(rebuilt, e) < 1e-14

    def test_zero_symbol(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        u = constant(sp, 0.0)
        assert norm(reconstructed(phi, u)) == 0.0

    def test_example(self):
        sp = FiniteMeasureSpace([1.0, 1.0, 2.0])
        phi = PointMap(sp, (0, 0, 2))
        u = MeasurableFunction(sp, [3, 3, 7])
        expected = 3 * set_value(phi, (0,)) + 7 * set_value(phi, (2,))
        rebuilt = reconstructed(phi, u)
        np.testing.assert_allclose(rebuilt, expected, atol=1e-14)
        direct = AvgMult(u, phi.partition, TOL).matrix
        assert deviation(rebuilt, direct) < 1e-13

    def test_perturbed_fiber_average_fails(self, monkeypatch):
        sp = FiniteMeasureSpace([1.0, 2.0, 1.5, 0.5, 3.0])
        phi = PointMap(sp, (1, 1, 1, 4, 4))
        u = MeasurableFunction(sp, [2.0, 2.0, 2.0, -1.0 + 1.0j, -1.0 + 1.0j])
        direct = AvgMult(u, phi.partition, TOL).matrix
        assert deviation(reconstructed(phi, u), direct) < 1e-13
        perturb_fiber_average(monkeypatch)
        # phi caches its fiber partition: a new point map gets a new one.
        assert deviation(reconstructed(PointMap(sp, phi.images), u), direct) > 1e-9


def test_normality_equivalence_with_perturbation():
    for seed in range(80, 90):
        inst = gen_instance(GeneratorConfig(
            seed=seed, n=8, block_count=3, measurable_u=True)).instance
        assert declared_normal(inst.u, inst.partition)
        assert commutator_norm(inst.u, inst.partition) < 1e-10
        bad = perturb_nonmeasurable(inst, seed)
        assert not declared_normal(bad.u, bad.partition)
        assert commutator_norm(bad.u, bad.partition) > 1e-6
