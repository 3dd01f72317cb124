"""A seeded hard family for E M_u, f -> E(u f): the normality, spectrum
and spectral-decomposition groups near every threshold they decide on.

Each instance draws n in 2..16 points with weights 10^U(-6, 6), block
means 10^U(-3, 1) with a random phase, a zero block 30% of the time, a
second block mean within relative 10^U(-11, -6) of the first 30% of the
time, and a step of 10^U(-14, -2) at one point on top of the block means.
So u is blockwise constant up to a step that crosses every tolerance, and
block means sit near the grouping scale. rotation_config, which the
pinned reports are built on, stays off these edges on purpose.
"""

from collections import Counter

import numpy as np
import pytest

from wcelab.instance_io import InstanceBundle
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.suite import run_suite
from wcelab.wce import WceInstance

from conftest import constant

FAMILY_SIZE = 200
GROUPS = ("normality", "spectrum", "spectral_decomp")


def phases(rng, size=None):
    return np.exp(2j * np.pi * rng.random(size))


def near_normal_family_bundle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    space = FiniteMeasureSpace(10.0 ** rng.uniform(-6, 6, n))
    k = int(rng.integers(1, n + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False))
    partition = Partition(space, np.split(rng.permutation(n), cuts))
    means = 10.0 ** rng.uniform(-3, 1, k) * phases(rng, k)
    if rng.random() < 0.3:
        means[rng.integers(k)] = 0.0
    if k > 1 and rng.random() < 0.3:
        means[1] = means[0] * (1.0 + 10.0 ** rng.uniform(-11, -6) * phases(rng))
    u = means[partition.block_of]
    u[rng.integers(n)] += 10.0 ** rng.uniform(-14, -2) * phases(rng)
    return InstanceBundle(WceInstance(partition, MeasurableFunction(space, u),
                                        constant(space, 1.0)))


@pytest.fixture(scope="module")
def family():
    return [near_normal_family_bundle(seed) for seed in range(FAMILY_SIZE)]


@pytest.mark.parametrize("tol, passed, skipped", [
    (1e-8, 1240, 160),
    (1e-6, 1310, 90),
    (1e-4, 1370, 30),
])
def test_family_gives_no_false_fail(family, tol, passed, skipped):
    # Only the spectral decomposition skips, when u is not blockwise
    # constant at tol; a looser tol measures more of it.
    report = run_suite(family, GROUPS, tol)
    failed = [(r.instance_digest[:8], r.name, r.residual) for r in report.records
              if r.status == "fail"]
    assert failed == []
    statuses = Counter(r.status for r in report.records)
    assert statuses == {"pass": passed, "skip": skipped}
