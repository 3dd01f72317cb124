"""Scale gate for T's groups: T(2^a u, 2^b w) = 2^(a+b) T exactly, and every
closed form of T is homogeneous (U and the kernels do not move; |T|, the
Aluthge transform and ||T|| scale by 2^(a+b), |T|^(1/2) by 2^((a+b)/2)).
Scaling by a power of two is exact for normal floats, so a scaled rotation
instance must get the statuses of the unscaled one in every basic group,
with no numpy warning: a metamorphic relation that needs no oracle.

The grid spans the range where the block root mean squares, sigma and the
entries of T are normal floats, and where the calculus test function t^3
of sigma^2 stays finite (|a + b| below about 165). The groups of E M_u are
not gated here: their decisions use tol (1 + ||E M_u||), which becomes
absolute as ||E M_u|| goes to 0.

Two more relations hold for all 12 groups. Relabelling the points by a
permutation, weights, partition, u, w and the point map with them, is a
unitary change of basis: every status stays. Scaling the weights by 4^e
leaves T's matrix in the orthonormal basis (w_i sqrt(mu_i mu_j) / mu(B) u_j
on each block) bit for bit the same, since sqrt(4^e) = 2^e is exact.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from wcelab.checks import BASIC_GROUPS, FULL_GROUPS
from wcelab.generator import gen_instance, rotation_config
from wcelab.instance_io import InstanceBundle
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.spectral import PointMap
from wcelab.suite import run_suite
from wcelab.wce import WceInstance, build_operator

SCALES = [(-17, -17), (40, 0), (120, 40), (-266, 0), (-565, 0), (332, -332),
          (-565, 565), (-900, 600)]


def scaled(bundle, a, b):
    """The bundle with u scaled by 2^a and w by 2^b, part by part."""
    inst = bundle.instance

    def times(f, e):
        return MeasurableFunction(f.space, np.ldexp(f.values.view(float), e).view(complex))

    return dataclasses.replace(bundle, instance=WceInstance(
        inst.partition, times(inst.u, a), times(inst.w, b)))


def rebuilt(bundle, weights, perm):
    """The bundle on a space with these weights, point j of it being point
    perm[j] of the bundle's: partition, u, w and the point map go with
    their points."""
    inst = bundle.instance
    new_of = np.argsort(perm)
    space = FiniteMeasureSpace(weights)

    def carried(f):
        return MeasurableFunction(space, f.values[perm])

    partition = Partition(space, tuple(tuple(new_of[list(b)].tolist())
                                       for b in inst.partition.blocks))
    images = np.asarray(bundle.point_map.images)
    return InstanceBundle(WceInstance(partition, carried(inst.u), carried(inst.w)),
                          PointMap(space, tuple(new_of[images[perm]].tolist())))


def statuses(bundle, groups=BASIC_GROUPS):
    return [(r.name, r.status) for r in run_suite([bundle], groups).records]


@pytest.fixture(scope="module")
def rotation():
    bundles = [gen_instance(rotation_config(seed, with_point_map=True))
               for seed in range(1, 201)]
    return bundles, [statuses(b) for b in bundles]


@pytest.fixture(scope="module")
def rotation_full(rotation):
    bundles, _ = rotation
    return bundles, [statuses(b, FULL_GROUPS) for b in bundles]


@pytest.mark.parametrize("a, b", SCALES)
def test_scaled_rotation_keeps_every_status(rotation, a, b):
    bundles, expected = rotation
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moved = [seed for seed, (bundle, want) in enumerate(zip(bundles, expected), 1)
                 if statuses(scaled(bundle, a, b)) != want]
    assert [str(w.message) for w in caught] == []
    assert moved == []


def test_relabelled_points_keep_every_status(rotation_full):
    bundles, expected = rotation_full
    rng = np.random.default_rng(1302)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moved = []
        for seed, (bundle, want) in enumerate(zip(bundles, expected), 1):
            perm = rng.permutation(bundle.instance.space.n)
            relabelled = rebuilt(bundle, bundle.instance.space.weights[perm], perm)
            if statuses(relabelled, FULL_GROUPS) != want:
                moved.append(seed)
    assert [str(w.message) for w in caught] == []
    assert moved == []


@pytest.mark.parametrize("e", [100, -100])
def test_weights_scaled_by_a_power_of_four_keep_t_and_every_status(rotation_full, e):
    bundles, expected = rotation_full
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        changed_t, moved = [], []
        for seed, (bundle, want) in enumerate(zip(bundles, expected), 1):
            space = bundle.instance.space
            reweighted = rebuilt(bundle, np.ldexp(space.weights, 2 * e), np.arange(space.n))
            if not np.array_equal(build_operator(reweighted.instance),
                                  build_operator(bundle.instance)):
                changed_t.append(seed)
            if statuses(reweighted, FULL_GROUPS) != want:
                moved.append(seed)
    assert [str(w.message) for w in caught] == []
    assert changed_t == [] and moved == []
