import numpy as np
import pytest

from wcelab.checks import DEFAULT_TOL
from wcelab.errors import ConfigInvalidError
from wcelab.generator import GeneratorConfig, gen_instance, rotation_config
from wcelab.instance_io import instance_digest, serialize_instance
from wcelab.wce import build_operator, partial_isometry_criterion

from conftest import (
    adjoint,
    declared_normal,
    finest_partition,
    norm,
    perturb_nonmeasurable,
)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n": 1},
        {"n": 65},
        {"n": 4, "block_count": 0},
        {"n": 4, "block_count": 5},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigInvalidError):
            gen_instance(GeneratorConfig(seed=1, **kwargs))


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        cfg = GeneratorConfig(seed=1, n=10, block_count=4, with_point_map=True)
        a = gen_instance(cfg)
        b = gen_instance(cfg)
        assert serialize_instance(a) == serialize_instance(b)

    def test_different_seeds_differ(self):
        a = gen_instance(GeneratorConfig(seed=1))
        b = gen_instance(GeneratorConfig(seed=2))
        assert instance_digest(serialize_instance(a)) != instance_digest(serialize_instance(b))

    def test_point_map_determinism(self):
        def point_map(seed):
            return gen_instance(GeneratorConfig(seed=seed, n=5, with_point_map=True)).point_map

        assert point_map(3).images == point_map(3).images
        assert point_map(3).images != point_map(4).images


class TestRanges:
    def test_weights_and_magnitudes_in_range(self):
        for seed in range(1, 30):
            inst = gen_instance(rotation_config(seed)).instance
            w = inst.space.weights
            assert np.all((0.1 <= w) & (w <= 10.0))
            assert np.all(np.abs(inst.u.values) <= 4.0 + 1e-12)
            assert np.all(np.abs(inst.w.values) <= 4.0 + 1e-12)
            assert 2 <= inst.space.n <= 24

    def test_rotation_covers_all_modes(self):
        variants = {s % 5 for s in range(1, 30)}
        assert variants == {0, 1, 2, 3, 4}
        cfgs = [rotation_config(s) for s in range(1, 30)]
        assert any(c.zero_blocks for c in cfgs)
        assert any(c.constant_u for c in cfgs)
        assert any(c.measurable_u for c in cfgs)
        assert any(c.partial_isometry for c in cfgs)


class TestModes:
    def test_measurable_u(self):
        for seed in range(5):
            inst = gen_instance(GeneratorConfig(
                seed=seed, n=9, block_count=3, measurable_u=True)).instance
            assert declared_normal(inst.u, inst.partition)

    def test_constant_u(self):
        inst = gen_instance(GeneratorConfig(
            seed=4, n=7, block_count=3, constant_u=True)).instance
        assert np.all(inst.u.values == inst.u.values[0])
        assert abs(inst.u.values[0]) >= 0.9  # constant stays away from zero

    def test_zero_blocks_gives_proper_support(self):
        hits = 0
        for seed in range(20):
            inst = gen_instance(GeneratorConfig(
                seed=seed, n=10, block_count=4, zero_blocks=True)).instance
            if not inst.kept.all():
                hits += 1
            # Aggregates that are not zeroed stay above the generator's
            # floor, so the rank cut keeps exactly the nonzero blocks.
            np.testing.assert_array_equal(inst.kept, inst.sigma > 0)
        assert hits == 20  # every zero_blocks instance has a strict subset

    def test_partial_isometry_mode(self):
        for seed in range(10):
            inst = gen_instance(GeneratorConfig(
                seed=seed, n=8, block_count=3, partial_isometry=True)).instance
            assert partial_isometry_criterion(inst, DEFAULT_TOL)
            np.testing.assert_array_equal(inst.kept, inst.sigma > 0.5)
            t = build_operator(inst)
            residual = norm(t @ adjoint(t) @ t - t)
            assert residual <= 1e-8 * max(1.0, norm(t))

    def test_block_aggregates_floored(self):
        # Non-zeroed blocks keep their quadratic aggregate above the floor
        # so rank cutoffs stay far from the spectrum.
        for seed in range(10):
            inst = gen_instance(GeneratorConfig(seed=seed, n=12, block_count=4)).instance
            assert np.all(inst.rms ** 2 >= 0.04)


class TestPerturbation:
    def test_breaks_measurability(self):
        inst = gen_instance(GeneratorConfig(
            seed=9, n=8, block_count=3, measurable_u=True)).instance
        bad = perturb_nonmeasurable(inst, 1)
        assert not declared_normal(bad.u, bad.partition)

    def test_requires_multipoint_block(self):
        inst = gen_instance(GeneratorConfig(seed=9, n=4, block_count=4)).instance
        assert sorted(inst.partition.blocks) == list(finest_partition(inst.space).blocks)
        with pytest.raises(ValueError):
            perturb_nonmeasurable(inst, 1)
