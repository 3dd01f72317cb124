"""Conditional expectation as the block-averaging projection.

On a finite space the conditional expectation onto a partition algebra
replaces a function on each block by its weighted mean. That is the
unique blockwise-constant function with the same block integrals, and as
an operator it is the orthogonal projection of the weighted L2 space
onto the blockwise-constant functions. Both the function and the
operator type here take the partition that generates the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import Partition
from .opalgebra import require_finite


def cond_exp_values(partition: Partition, values: np.ndarray) -> np.ndarray:
    """Blockwise weighted means, assigned back to every point of the block;
    values may be a (..., n) stack of point functions, one row each.

    The result is blockwise constant with the same block integrals as
    values. Real input stays real, so aggregates like E(|u|^2) can be
    compared with thresholds.
    """
    return partition.block_means(values)[..., partition.block_of]


@dataclass(frozen=True, eq=False)
class Sandwich:
    """f -> left * E(right * f), the shape M_a E M_b of every closed form."""

    partition: Partition
    left: np.ndarray
    right: np.ndarray

    def matrices(self) -> np.ndarray:
        """left[..., i] E[i, j] right[..., j] with E's orthonormal-basis
        matrix (diagonal multipliers commute with the frame change): one
        (n, n) matrix, or a (m, n, n) stack of them when left or right is a
        (m, n) stack of symbols. Entries that overflow raise ValueError,
        without a numpy warning.

        This is the one place a symbol multiplies E's matrix: T (E M_u is T
        with w = 1) and the reconstruction's E_phi M_u become matrices here.
        Only the spectral measure's 0/1 column masks (PointMap.values) and
        the unit block columns (Partition.unit_columns) scale it by hand."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = (self.left[..., :, None] * self.partition.cond_exp_matrix
                 * self.right[..., None, :])
        return require_finite(m)
