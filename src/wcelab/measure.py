"""Finite measure spaces, partitions, and measurable functions.

Everything downstream runs on a finite set of weighted points, so the
measure-theoretic qualifiers (almost everywhere, essential supremum)
collapse to plain pointwise statements. Point masses are strictly
positive by construction, which is exactly what makes that collapse
valid: a property holding up to a null set holds at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def divide_parts(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """values / scale part by part: numpy's complex / real is inf at a subnormal scale."""
    return (np.stack((values.real, values.imag), -1) / scale[..., None]).view(complex)[..., 0]


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace:
    """n weighted points; weights[i] is the mass of point i.

    All singletons are measurable and carry positive mass, so the space
    is purely atomic and sub-sigma-algebras are exactly set partitions.
    """

    weights: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("a measure space needs at least one point")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("point masses must be finite and > 0")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != w.size:
                raise ValueError("label count must match the point count")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be distinct")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def sqrt_weights(self) -> np.ndarray:
        s = np.sqrt(self.weights)
        s.setflags(write=False)
        return s

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteMeasureSpace)
            and np.array_equal(self.weights, other.weights)
            and self.labels == other.labels
        )


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty index blocks covering all points.

    Each block is an atom of the sub-sigma-algebra the partition
    generates; the all-singletons partition represents the full algebra
    and the one-block partition the trivial one.
    """

    space: FiniteMeasureSpace
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.space.n
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        if any(len(b) == 0 for b in blocks):
            raise ValueError(f"empty block in {list(map(list, blocks))}")
        flat = [i for b in blocks for i in b]
        if sorted(flat) != list(range(n)) or len(flat) != n:
            raise ValueError(
                f"blocks {list(map(list, blocks))} do not partition 0..{n - 1} "
                "(overlap, gap, or out-of-range index)"
            )
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @cached_property
    def block_of(self) -> np.ndarray:
        """Map point index -> block index."""
        sizes = np.fromiter(map(len, self.blocks), dtype=np.intp, count=self.block_count)
        idx = np.empty(self.space.n, dtype=np.intp)
        idx[np.concatenate(self.blocks)] = np.repeat(np.arange(self.block_count), sizes)
        idx.setflags(write=False)
        return idx

    @cached_property
    def block_masses(self) -> np.ndarray:
        m = np.bincount(self.block_of, self.space.weights, self.block_count)
        m.setflags(write=False)
        return m

    @cached_property
    def cond_exp_matrix(self) -> np.ndarray:
        """E as a real float64 matrix in the orthonormal basis e_i / sqrt(mu_i)
        of the weighted L2 space, the frame of every dense operator in the
        package: M[i, j] = sqrt(mu_i mu_j) / mu(B) when i and j share the
        block B, else 0. That is D^(1/2) E D^(-1/2) with D = diag(mu), so
        the weighted inner product is the Euclidean one, adjoints are
        conjugate transposes, and this matrix of the self-adjoint E is
        symmetric. It is formed in one place, once per partition, and is
        read-only.

        E is a positive real projection, so the matrix stays real: products
        with complex symbols broadcast against it and come out complex, with
        the values a complex copy of it would give.
        """
        b = self.block_of
        s = self.space.sqrt_weights
        m = (b[:, None] == b[None, :]) * s[:, None] * s / self.block_masses[b][:, None]
        m.setflags(write=False)
        return m

    @cached_property
    def unit_columns(self) -> np.ndarray:
        """The n x block count frame of unit block columns q_B = sqrt(mu /
        mu(B)) chi_B in the orthonormal basis; E is the sum of the q_B q_B*."""
        b = self.block_of
        q = (b[:, None] == np.arange(self.block_count)) * np.sqrt(
            self.space.weights / self.block_masses[b])[:, None]
        q.setflags(write=False)
        return q

    @cached_property
    def first_points(self) -> np.ndarray:
        """Index of the first (lowest) point of every block, in block order."""
        first = np.fromiter((b[0] for b in self.blocks), dtype=np.intp,
                            count=self.block_count)
        first.setflags(write=False)
        return first

    @cached_property
    def _pair_bins(self) -> np.ndarray:
        """Bin 2b for the real and 2b + 1 for the imaginary part of every
        point of block b, as an (n, 2) array."""
        bins = 2 * self.block_of[:, None] + np.arange(2)
        bins.setflags(write=False)
        return bins

    def block_means(self, values: np.ndarray) -> np.ndarray:
        """Weighted mean of values over each block: one entry per block, per
        row of a (..., n) stack of point functions.

        This is the one block reduction every closed form is built on, one
        bincount for a whole stack. Real input gives real output, so
        aggregates like E(|u|^2) stay real and can be compared with
        thresholds; complex input is reduced as its (re, im) pairs, each
        part into a bin of its own and divided by the block mass, so an
        overflowing part leaves the other one finite and a subnormal mass
        gives no inf. Each row is summed in point order, as a single
        function would be. A block integral beyond the float range
        gives a mean that is not finite, without a warning; callers that
        need finite means test for them.
        """
        v = np.asarray(values)
        shape = v.shape[:-1]
        k = self.block_count
        pairs = np.iscomplexobj(v)
        if pairs:
            x = np.ascontiguousarray(v, dtype=complex).view(float).reshape(v.shape + (2,))
            w, bins, width = self.space.weights[:, None], self._pair_bins, 2 * k
        else:
            x, w, bins, width = v, self.space.weights, self.block_of, k
        rows = x.size // bins.size
        if shape:
            bins = width * np.arange(rows).reshape(shape + (1,) * bins.ndim) + bins
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.bincount(bins.ravel(), (x * w).ravel(), width * rows)
            means = total.reshape(shape + (k, -1)) / self.block_masses[:, None]
        return (means.view(complex) if pairs else means)[..., 0]

    def block_rms(self, values: np.ndarray) -> np.ndarray:
        """Root mean square sqrt(E|v|^2) over each block: one entry per
        block, per row of a (..., n) stack of point functions.

        Each block is divided by its largest part max(|re|, |im|), in real
        arithmetic, before it is squared, and the root is scaled back; so
        no square overflows, and one that underflows is below rounding next
        to 1. An RMS beyond the float range is inf, without a warning.
        """
        v = np.asarray(values)
        parts = np.ascontiguousarray(v, dtype=complex).view(float).reshape(v.shape + (2,))
        in_block = self.block_of == np.arange(self.block_count)[:, None]
        peak = np.where(in_block, np.abs(parts).max(axis=-1)[..., None, :], 0.0).max(axis=-1)
        scaled = parts / np.where(peak > 0.0, peak, 1.0)[..., self.block_of, None]
        with np.errstate(over="ignore", under="ignore"):
            return peak * np.sqrt(self.block_means((scaled * scaled).sum(axis=-1)))


@dataclass(frozen=True, eq=False)
class MeasurableFunction:
    """Complex-valued point function, an element of the (finite) L2 space."""

    space: FiniteMeasureSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1 or v.size != self.space.n:
            raise ValueError(
                f"function has {v.size} values for a {self.space.n}-point space"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
