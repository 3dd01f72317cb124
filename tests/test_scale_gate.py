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
"""

import dataclasses
import warnings

import numpy as np
import pytest

from wcelab.checks import BASIC_GROUPS
from wcelab.generator import gen_instance, rotation_config
from wcelab.measure import MeasurableFunction
from wcelab.suite import run_suite
from wcelab.wce import WceInstance

SCALES = [(-17, -17), (40, 0), (120, 40), (-266, 0), (-565, 0), (332, -332),
          (-565, 565), (-900, 600)]


def scaled(bundle, a, b):
    """The bundle with u scaled by 2^a and w by 2^b, part by part."""
    inst = bundle.instance

    def times(f, e):
        return MeasurableFunction(f.space, np.ldexp(f.values.view(float), e).view(complex))

    return dataclasses.replace(bundle, instance=WceInstance(
        inst.partition, times(inst.u, a), times(inst.w, b)))


def statuses(bundle):
    return [(r.name, r.status) for r in run_suite([bundle], BASIC_GROUPS).records]


@pytest.fixture(scope="module")
def rotation():
    bundles = [gen_instance(rotation_config(seed, with_point_map=True))
               for seed in range(1, 201)]
    return bundles, [statuses(b) for b in bundles]


@pytest.mark.parametrize("a, b", SCALES)
def test_scaled_rotation_keeps_every_status(rotation, a, b):
    bundles, expected = rotation
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moved = [seed for seed, (bundle, want) in enumerate(zip(bundles, expected), 1)
                 if statuses(scaled(bundle, a, b)) != want]
    assert [str(w.message) for w in caught] == []
    assert moved == []
