"""Conditional expectation as the block-averaging projection.

On a finite space the conditional expectation onto a partition algebra
replaces a function on each block by its weighted mean. That is the
unique blockwise-constant function with the same block integrals, and as
an operator it is the orthogonal projection of the weighted L2 space
onto the blockwise-constant functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError
from .measure import FiniteMeasureSpace, MeasurableFunction, Partition
from .opalgebra import WeightedOperator


@dataclass(frozen=True, eq=False)
class CondExp:
    """Averaging projection attached to a partition."""

    partition: Partition

    @property
    def space(self) -> FiniteMeasureSpace:
        return self.partition.space

    @property
    def block_masses(self) -> np.ndarray:
        return self.partition.block_masses


def cond_exp_values(e: CondExp, values: np.ndarray) -> np.ndarray:
    """Blockwise weighted means, assigned back to every point of the block.

    Pure array workhorse behind cond_exp; preserves real input dtype so
    aggregates like E(|u|^2) stay real.
    """
    p = e.partition
    return p.block_means(values)[p.block_of]


def cond_exp(e: CondExp, f: MeasurableFunction) -> MeasurableFunction:
    """Apply the conditional expectation to a function.

    The result g is blockwise constant with g_i the weighted mean of f
    over the block containing i, so integrals over every block agree
    with those of f.
    """
    if f.space != e.space:
        raise SpaceMismatchError("function and expectation live on different spaces")
    return MeasurableFunction(e.space, cond_exp_values(e, f.values))


def cond_exp_operator(e: CondExp) -> WeightedOperator:
    """Matrix form: M[i, j] = mu_j / mu(B(i)) for j in the block of i, else 0."""
    b = e.partition.block_of
    w = e.space.weights
    m = (b[:, None] == b[None, :]) * w[None, :] / e.block_masses[b][:, None]
    return WeightedOperator(e.space, m)
