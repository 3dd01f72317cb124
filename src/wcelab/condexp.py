"""Conditional expectation as the block-averaging projection.

On a finite space the conditional expectation onto a partition algebra
replaces a function on each block by its weighted mean. That is the
unique blockwise-constant function with the same block integrals, and as
an operator it is the orthogonal projection of the weighted L2 space
onto the blockwise-constant functions. Both functions here take the
partition that generates the algebra.
"""

from __future__ import annotations

import numpy as np

from .measure import Partition
from .opalgebra import WeightedOperator


def cond_exp_values(partition: Partition, values: np.ndarray) -> np.ndarray:
    """Blockwise weighted means, assigned back to every point of the block.

    The result is blockwise constant with the same block integrals as
    values. Real input stays real, so aggregates like E(|u|^2) can be
    compared with thresholds.
    """
    return partition.block_means(values)[partition.block_of]


def cond_exp_operator(partition: Partition) -> WeightedOperator:
    """Matrix form: M[i, j] = mu_j / mu(B(i)) for j in the block of i, else 0."""
    b = partition.block_of
    w = partition.space.weights
    m = (b[:, None] == b[None, :]) * w[None, :] / partition.block_masses[b][:, None]
    return WeightedOperator(partition.space, m)
