"""Seeded random instance generation.

Instances come from numpy's PCG64 generator, so a fixed seed gives the
same instance on every run. Special modes shape the symbols to exercise
boundary behaviour of the closed forms: blockwise-constant u for the
normal-operator checks, exact partial-isometry scaling, zeroed blocks so
supports are proper subsets, and constant u.

Block aggregates of symbols that are not deliberately zeroed are kept
above a fixed floor (blocks falling below it are redrawn with larger
magnitudes). That bounds the nonzero singular values of the generated
operators away from the numerical-kernel cutoffs, so rank decisions in
the certification never sit on a knife edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError
from .instance_io import InstanceBundle
from .measure import FiniteMeasureSpace, MeasurableFunction, Partition
from .spectral import PointMap
from .wce import WceInstance

# Point masses are drawn uniformly from WEIGHT_RANGE, symbol magnitudes
# from MAGNITUDE_RANGE.
WEIGHT_RANGE = (0.1, 10.0)
MAGNITUDE_RANGE = (0.0, 4.0)
# Minimum allowed blockwise mean of |symbol|^2, as a fraction of the
# squared magnitude cap, for blocks that are not deliberately zeroed.
_AGGREGATE_FLOOR_FRACTION = 0.003


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    n: int = 8
    block_count: int = 3
    measurable_u: bool = False
    partial_isometry: bool = False
    zero_blocks: bool = False
    constant_u: bool = False
    with_point_map: bool = False

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigInvalidError(f"seed={self.seed} must be >= 0")
        if not (2 <= self.n <= 64):
            raise ConfigInvalidError(f"n={self.n} out of range 2..64")
        if not (1 <= self.block_count <= self.n):
            raise ConfigInvalidError(
                f"block_count={self.block_count} out of range 1..{self.n}"
            )


def _random_partition(rng: np.random.Generator, n: int, k: int) -> list[list[int]]:
    """k nonempty blocks: a permutation seeds one point per block, the
    rest land uniformly."""
    perm = rng.permutation(n)
    assign = np.empty(n, dtype=np.intp)
    assign[perm[:k]] = np.arange(k)
    if n > k:
        assign[perm[k:]] = rng.integers(0, k, size=n - k)
    # A stable sort keeps the points of each block in ascending order.
    order = np.argsort(assign, kind="stable")
    ends = np.cumsum(np.bincount(assign, minlength=k))[:-1]
    return [b.tolist() for b in np.split(order, ends)]


def _draw_values(rng: np.random.Generator, shape: int | tuple[int, ...], lo: float,
                 hi: float) -> np.ndarray:
    """uniform(lo, hi) magnitudes times exp(i uniform(0, 2 pi)) phases, in
    the given shape: all magnitudes are drawn, then all phases."""
    mags = rng.uniform(lo, hi, shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, shape)
    return mags * np.exp(1j * phases)


def _block_aggregate(values: np.ndarray, idx: list[int], weights: np.ndarray) -> float:
    return float(np.sum(np.abs(values[idx]) ** 2 * weights[idx]) / weights[idx].sum())


def _apply_floor(
    rng: np.random.Generator,
    values: np.ndarray,
    blocks: list[list[int]],
    weights: np.ndarray,
    skip: set[int],
    blockwise: bool,
) -> None:
    """Redraw blocks whose |.|^2 aggregate fell below the floor."""
    lo, hi = MAGNITUDE_RANGE
    floor = _AGGREGATE_FLOOR_FRACTION * hi * hi
    redraw_lo = max(lo, 0.25 * hi)
    # Blocks are disjoint, so a redraw leaves the other blocks' terms as
    # they are: |v|^2 w is taken once and each block gathers its own.
    weighted = np.abs(values) ** 2 * weights
    for k, b in enumerate(blocks):
        if k in skip:
            continue
        if float(np.sum(weighted[b]) / weights[b].sum()) < floor:
            if blockwise:
                values[b] = _draw_values(rng, 1, redraw_lo, hi)[0]
            else:
                values[b] = _draw_values(rng, len(b), redraw_lo, hi)


def _choose_subset(
    rng: np.random.Generator, pool: list[int], strict: bool
) -> list[int]:
    """Nonempty random subset of pool; proper subset when strict."""
    top = len(pool) if not strict else len(pool) - 1
    count = int(rng.integers(1, top + 1))
    return sorted(int(i) for i in rng.choice(pool, size=count, replace=False))


def gen_instance(cfg: GeneratorConfig) -> InstanceBundle:
    """Deterministic instance for the given config."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n, cfg.block_count
    mlo, mhi = MAGNITUDE_RANGE

    weights = rng.uniform(*WEIGHT_RANGE, n)
    blocks = _random_partition(rng, n, k)
    space = FiniteMeasureSpace(weights)
    partition = Partition(space, blocks)

    # Symbol u.
    if cfg.constant_u:
        u_vals = np.full(n, _draw_values(rng, 1, max(mlo, 0.25 * mhi), mhi)[0])
    elif cfg.measurable_u:
        u_vals = np.empty(n, dtype=complex)
        for b in blocks:
            u_vals[b] = _draw_values(rng, 1, mlo, mhi)[0]
        _apply_floor(rng, u_vals, blocks, weights, skip=set(), blockwise=True)
    else:
        u_vals = _draw_values(rng, n, mlo, mhi)
        _apply_floor(rng, u_vals, blocks, weights, skip=set(), blockwise=False)

    zeroed_u: set[int] = set()
    if cfg.zero_blocks and k >= 2:
        zeroed_u = set(_choose_subset(rng, list(range(k)), strict=True))
        for b in zeroed_u:
            u_vals[blocks[b]] = 0.0

    # Symbol w.
    w_vals = _draw_values(rng, n, mlo, mhi)
    zeroed_w: set[int] = set()
    if cfg.zero_blocks and k >= 2 and rng.random() < 0.5:
        zeroed_w = set(_choose_subset(rng, list(range(k)), strict=True))
        for b in zeroed_w:
            w_vals[blocks[b]] = 0.0
    _apply_floor(rng, w_vals, blocks, weights, skip=zeroed_w, blockwise=False)

    if cfg.partial_isometry:
        candidates = sorted(set(range(k)) - zeroed_u)
        chosen = _choose_subset(rng, candidates, strict=False)
        redraw_lo = max(mlo, 1.0) if mhi >= 1.0 else 0.5 * mhi
        for b in range(k):
            idx = blocks[b]
            if b in chosen:
                if cfg.measurable_u or cfg.constant_u:
                    pass  # keep blockwise structure; floor already applied
                else:
                    u_vals[idx] = _draw_values(rng, len(idx), redraw_lo, mhi)
                w_vals[idx] = _draw_values(rng, len(idx), redraw_lo, mhi)
                scale = 1.0 / np.sqrt(
                    _block_aggregate(u_vals, idx, weights)
                    * _block_aggregate(w_vals, idx, weights)
                )
                w_vals[idx] = w_vals[idx] * scale
            else:
                w_vals[idx] = 0.0

    instance = WceInstance(
        partition,
        MeasurableFunction(space, u_vals),
        MeasurableFunction(space, w_vals),
    )
    point_map = None
    if cfg.with_point_map:
        point_map = PointMap(space, tuple(int(i) for i in rng.integers(0, n, n)))
    return InstanceBundle(instance, point_map)


def rotation_config(seed: int, with_point_map: bool = False) -> GeneratorConfig:
    """Deterministic config family covering all special modes; n stays in
    2..24 so suites remain cheap."""
    n = 2 + (seed * 7919) % 23
    block_count = 1 + (seed * 104729) % n
    variant = seed % 5
    return GeneratorConfig(
        seed=seed,
        n=n,
        block_count=block_count,
        zero_blocks=(variant == 1),
        constant_u=(variant == 2),
        measurable_u=(variant == 3),
        partial_isometry=(variant == 4),
        with_point_map=with_point_map,
    )
