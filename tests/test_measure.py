import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.spectral import AvgMult
from wcelab.wce import WceInstance

from conftest import (
    coarsest_partition,
    constant,
    declared_normal,
    finest_partition,
)


class TestMakeSpace:
    """FiniteMeasureSpace checks and normalizes its point masses itself."""

    def test_single_point(self):
        sp = FiniteMeasureSpace([1.0])
        assert sp.n == 1
        assert sp.total_mass == 1.0

    def test_two_points_total_mass(self):
        # 1 + 3 = 4 by hand
        sp = FiniteMeasureSpace([1.0, 3.0])
        assert sp.total_mass == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="finite and > 0"):
            FiniteMeasureSpace([1.0, -1.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="finite and > 0"):
            FiniteMeasureSpace([0.0, 1.0])

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ValueError, match="finite and > 0"):
            FiniteMeasureSpace([1.0, float("inf")])
        with pytest.raises(ValueError, match="finite and > 0"):
            FiniteMeasureSpace([1.0, float("nan")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            FiniteMeasureSpace([])

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            FiniteMeasureSpace([1.0, 2.0], labels=["a", "a"])

    def test_weights_are_immutable(self):
        sp = FiniteMeasureSpace([1.0, 2.0])
        with pytest.raises(ValueError):
            sp.weights[0] = 5.0


class TestMakePartition:
    """Partition checks and normalizes its blocks itself."""

    def test_two_blocks(self):
        sp = FiniteMeasureSpace([1.0] * 4)
        p = Partition(sp, [[0, 1], [2, 3]])
        assert p.block_count == 2

    def test_finest(self):
        sp = FiniteMeasureSpace([1.0, 1.0])
        p = Partition(sp, [[0], [1]])
        assert p.block_count == sp.n

    def test_overlap_rejected(self):
        sp = FiniteMeasureSpace([1.0] * 3)
        with pytest.raises(ValueError, match="do not partition"):
            Partition(sp, [[0, 1], [1, 2]])

    def test_gap_rejected(self):
        sp = FiniteMeasureSpace([1.0] * 3)
        with pytest.raises(ValueError, match="do not partition"):
            Partition(sp, [[0, 1]])

    def test_empty_block_rejected(self):
        sp = FiniteMeasureSpace([1.0] * 2)
        with pytest.raises(ValueError, match="empty block"):
            Partition(sp, [[0, 1], []])

    def test_block_masses(self):
        sp = FiniteMeasureSpace([1.0, 3.0, 2.0])
        p = Partition(sp, [[0, 1], [2]])
        np.testing.assert_allclose(p.block_masses, [4.0, 2.0])

    def test_block_of(self):
        sp = FiniteMeasureSpace([1.0] * 4)
        p = Partition(sp, [[0, 2], [1, 3]])
        assert p.block_of.tolist() == [0, 1, 0, 1]


def support_points(values):
    """The kept points of T for u = values, w = 1 on unit weights and the
    finest partition, where the singular value of each block is |u|."""
    sp = FiniteMeasureSpace([1.0] * len(values))
    u = MeasurableFunction(sp, values)
    inst = WceInstance(finest_partition(sp), u, constant(sp, 1.0))
    return frozenset(np.flatnonzero(inst.kept).tolist())


class TestSupport:
    def test_zero_function(self):
        assert support_points([0, 0, 0]) == frozenset()

    def test_exact_zero_excluded(self):
        assert support_points([2, 0]) == frozenset({0})

    def test_relative_threshold(self):
        # The cut is RANK_TOL = 1e-10 on the amplitude |u|, not on |u|^2.
        assert support_points([1, 1e-11]) == frozenset({0})
        assert support_points([1, 1e-9]) == frozenset({0, 1})
        assert support_points([1e-100, 1e-109]) == frozenset({0, 1})


class TestIsMeasurable:
    """f is measurable for a partition when it is constant on every block:
    its spread sqrt(E|f - E f|^2) (spectral.AvgMult.spread) is 0 there."""

    def test_blockwise_constant(self):
        sp = FiniteMeasureSpace([1.0] * 4)
        p = Partition(sp, [[0, 1], [2, 3]])
        f = MeasurableFunction(sp, [5, 5, 7, 7])
        spread, rms = AvgMult(f, p, 1e-8).spread
        np.testing.assert_array_equal(spread, [0.0, 0.0])
        np.testing.assert_allclose(rms, [5.0, 7.0], rtol=1e-15)

    def test_varies_on_block(self):
        sp = FiniteMeasureSpace([1.0] * 4)
        p = Partition(sp, [[0, 1], [2, 3]])
        f = MeasurableFunction(sp, [5, 6, 7, 7])
        spread, _ = AvgMult(f, p, 1e-8).spread
        np.testing.assert_allclose(spread, [0.5, 0.0], rtol=1e-15, atol=0)
        assert not declared_normal(f, p)

    def test_finest_always_measurable(self, rng):
        sp = FiniteMeasureSpace([1.0, 2.0, 0.5])
        f = MeasurableFunction(sp, rng.normal(size=3) + 1j * rng.normal(size=3))
        assert declared_normal(f, finest_partition(sp), tol=1e-15)

    def test_overflowing_abs_raises(self):
        # |f| and its block RMS are inf at the first point, so no spread is
        # measured, and nothing is warned: the parts are scaled by their
        # block's largest part in real arithmetic, which cannot underflow.
        sp = FiniteMeasureSpace([1.0, 1.0])
        f = MeasurableFunction(sp, [1.5e308 + 1.5e308j, 1.0])
        with np.errstate(all="raise"), pytest.raises(ValueError, match="not finite"):
            AvgMult(f, finest_partition(sp), 1e-8).spread

    @pytest.mark.parametrize("part", ["imag", "real"])
    def test_overflowing_part_leaves_the_other_finite(self, part):
        # The block integral of one part overflows to inf. The other part
        # is reduced in bins of its own and stays finite: joining the two
        # sums as re + 1j * im once turned an inf imaginary part into a NaN
        # real part.
        sp = FiniteMeasureSpace([1e10, 1e10, 1.0])
        p = Partition(sp, [[0, 1], [2]])
        big = 1e300j if part == "imag" else 1e300
        values = np.array([2.0 + 3.0j + big, 4.0 + 5.0j + big, 1.0 - 1.0j])
        with np.errstate(all="raise"):
            means = p.block_means(values)
            stacked = p.block_means(np.stack((values, values)))
        finite, overflowed = (means.real, means.imag) if part == "imag" else (
            means.imag, means.real)
        np.testing.assert_array_equal(finite[0], 3.0 if part == "imag" else 4.0)
        assert np.isposinf(overflowed[0])
        np.testing.assert_array_equal(means[1], 1.0 - 1.0j)
        np.testing.assert_array_equal(stacked, np.stack((means, means)))

    @pytest.mark.parametrize("second", [1e300, -1e300])
    def test_overflowing_block_mean_raises(self, second):
        # The block integral is inf (or inf - inf): no eigenvalue of E M_f
        # can be grouped, and the reduction itself warns nothing. The
        # spread is taken on f over its block RMS, so it decides without one.
        sp = FiniteMeasureSpace([1e10, 1e10])
        f = MeasurableFunction(sp, [1e300, second])
        p = coarsest_partition(sp)
        with np.errstate(all="raise"):
            assert not np.isfinite(p.block_means(f.values)).any()
            with pytest.raises(ValueError, match="not finite"):
                AvgMult(f, p, 1e-8).spectrum()
            spread, rms = AvgMult(f, p, 1e-8).spread
        np.testing.assert_allclose(spread, [0.0 if second > 0 else 1e300])
        np.testing.assert_allclose(rms, [1e300])


# Hypothesis strategies for small weighted spaces with a partition.

@st.composite
def space_and_partition(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    sp = FiniteMeasureSpace(weights)
    k = draw(st.integers(min_value=1, max_value=n))
    assign = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)]
    for b in range(k):
        if b not in assign:
            assign[draw(st.integers(min_value=0, max_value=n - 1))] = b
    used = sorted(set(assign))
    blocks = [[i for i in range(n) if assign[i] == b] for b in used]
    return sp, Partition(sp, blocks)


@settings(max_examples=60, deadline=None)
@given(space_and_partition())
def test_block_masses_sum_to_total(sp_and_p):
    sp, p = sp_and_p
    assert np.isclose(p.block_masses.sum(), sp.total_mass, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(space_and_partition(), st.integers(0, 2**31 - 1))
def test_measurability_survives_refinement(sp_and_p, split_seed):
    # Refining the partition can only make a blockwise-constant function
    # easier to be constant on.
    sp, coarse = sp_and_p
    rng = np.random.default_rng(split_seed)
    fine_blocks = []
    for b in coarse.blocks:
        if len(b) >= 2 and rng.random() < 0.7:
            cut = int(rng.integers(1, len(b)))
            fine_blocks.extend([list(b[:cut]), list(b[cut:])])
        else:
            fine_blocks.append(list(b))
    fine = Partition(sp, fine_blocks)
    vals = np.empty(sp.n, dtype=complex)
    for b in coarse.blocks:
        vals[list(b)] = rng.normal() + 1j * rng.normal()
    f = MeasurableFunction(sp, vals)
    assert declared_normal(f, coarse)
    assert declared_normal(f, fine)


@settings(max_examples=40, deadline=None)
@given(space_and_partition())
def test_support_exact_semantics(sp_and_p):
    # With w = 1, a block is kept exactly when u is nonzero somewhere on
    # it (the draws stay far above the rank cut).
    sp, p = sp_and_p
    rng = np.random.default_rng(0)
    vals = rng.normal(size=sp.n)
    vals[rng.random(sp.n) < 0.5] = 0.0
    f = MeasurableFunction(sp, vals)
    inst = WceInstance(p, f, constant(sp, 1.0))
    nonzero_blocks = np.bincount(p.block_of, vals != 0, p.block_count) > 0
    np.testing.assert_array_equal(inst.kept, nonzero_blocks[p.block_of])
