"""Closed-form decompositions of weighted conditional-expectation operators.

An instance fixes a partition and two complex symbols u and w. The
operator under study sends f to w * E(u f), where E averages over the
partition blocks. On block B it is the rank-one sigma_B M_{w_hat} E
M_{u_hat}, with sigma_B = sqrt(E(|u|^2)) sqrt(E(|w|^2)) and the unit
symbols u_hat = u / sqrt(E(|u|^2)), w_hat = w / sqrt(E(|w|^2)). Its
norm, polar decomposition, Aluthge transform, and the functional calculus
of the two Gram-type products are written in sigma and the unit symbols,
never as quotients of aggregates, so they hold at every scale where sigma
and the entries of T are floats. This module builds the polar pair and
the calculus on the kept blocks' unit frames v and l; the Aluthge
transform is v diag(sigma_B E(u_hat w_hat)_B) v* on the same frames, with
E(u_hat w_hat)_B = v_B* l_B. The oracles in opalgebra certify them against
the matrix of T.

Every closed form lives on the kept blocks: those whose sigma_B exceeds
RANK_TOL times the largest, the cut SvdOracle makes on the singular
values of the matrix of T, so both sides agree on T's rank. The unit
symbols are zero off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .condexp import Sandwich
from .measure import FiniteMeasureSpace, MeasurableFunction, Partition, divide_parts
from .opalgebra import RANK_TOL, require_finite


@dataclass(frozen=True, eq=False)
class WceInstance:
    """Partition plus symbols u, w on its space, with the block root mean
    squares, T's singular values and the unit symbols cached."""

    partition: Partition
    u: MeasurableFunction
    w: MeasurableFunction

    def __post_init__(self) -> None:
        if self.u.space != self.space or self.w.space != self.space:
            raise ValueError("u, w, and partition must share one space")

    @property
    def space(self) -> FiniteMeasureSpace:
        return self.partition.space

    @cached_property
    def rms(self) -> np.ndarray:
        """sqrt(E(|u|^2)) and sqrt(E(|w|^2)) on each block, as the two rows
        of a (2, block count) array (Partition.block_rms). An RMS beyond the
        float range leaves T no singular value: ValueError, E(|u|^2) first."""
        rms = self.partition.block_rms(np.stack((self.u.values, self.w.values)))
        for row, name in zip(rms, ("E(|u|^2)", "E(|w|^2)")):
            if not np.isfinite(row).all():
                raise ValueError(f"{name} is not finite")
        return rms

    @cached_property
    def sigma(self) -> np.ndarray:
        """T's singular value sigma_B = sqrt(E(|u|^2)) sqrt(E(|w|^2)) at each
        point of block B; ValueError where it is beyond the float range."""
        nu, nw = self.rms
        with np.errstate(over="ignore"):
            sigma = (nu * nw)[self.partition.block_of]
        if not np.isfinite(sigma).all():
            raise ValueError("E(|w|^2) E(|u|^2) is not finite")
        return sigma

    @cached_property
    def kept(self) -> np.ndarray:
        """Points of the blocks whose sigma_B exceeds RANK_TOL times the
        largest; empty when T = 0. The one rank cut of the closed forms."""
        return self.sigma > RANK_TOL * float(self.sigma.max())

    @cached_property
    def units(self) -> np.ndarray:
        """The unit symbols u_hat = u / sqrt(E(|u|^2)) and w_hat = w /
        sqrt(E(|w|^2)) on the kept blocks, 0 off them, as the two rows of a
        (2, n) array."""
        scale = np.where(self.kept, self.rms[:, self.partition.block_of], 1.0)
        return np.where(self.kept, divide_parts(np.stack((self.u.values, self.w.values)),
                                                scale), 0.0)


def build_operator(inst: WceInstance) -> np.ndarray:
    """The matrix of f -> w * E(u f), for the oracles."""
    return Sandwich(inst.partition, inst.w.values, inst.u.values).matrices()


def norm_formula(inst: WceInstance) -> float:
    """Closed-form operator norm: max_x sigma(x), sigma = sqrt(E(|u|^2)
    E(|w|^2)). The essential supremum is a plain maximum because every
    point has positive mass."""
    return float(inst.sigma.max())


def partial_isometry_criterion(inst: WceInstance, tol: float) -> bool:
    """Whether E(|w|^2) E(|u|^2) = sigma^2 is an indicator function, which
    happens exactly when the operator is a partial isometry.

    True iff |sigma_B - sigma_B^3| <= tol * max(1, max sigma) on every block:
    the norm of T T* T - T on block B, on the scale the oracle measures it,
    so a block with sigma_B far below tol counts as 0 whether or not the
    rank cut keeps it. A non-finite aggregate raises ValueError.
    """
    sigma = inst.sigma
    with np.errstate(over="ignore"):
        dev = float(np.abs(sigma - sigma ** 3).max(initial=0.0))
    return dev <= tol * max(1.0, float(sigma.max(initial=0.0)))


def closed_polar(inst: WceInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form polar decomposition T = U |T| on the K kept blocks B, as
    the frames (v, l, sigma): T = sum_B sigma_B l_B v_B*, U = sum_B l_B v_B*
    and |T| = sum_B sigma_B v_B v_B*, with the (K,) kept sigma_B and the
    n x K frames of unit columns v_B = conj(u_hat) q_B and l_B = w_hat q_B,
    q_B = sqrt(mu / mu(B)) chi_B. E is the sum of the q_B q_B*, so U =
    M_{w_hat} E M_{u_hat} and |T| = M_{sigma conj(u_hat)} E M_{u_hat}.

    The columns of each frame have disjoint supports, so U is a partial
    isometry, and U, |T| and T share one kernel, the complement of span v:
    the decomposition is the unique one. For the same reason v_B* l_C = 0
    unless B = C, and v_B* l_B = E(u_hat w_hat)_B, so the Aluthge transform
    |T|^(1/2) U |T|^(1/2) is v diag(sigma_B v_B* l_B) v*.
    """
    partition = inst.partition
    blocks = np.flatnonzero(inst.kept[partition.first_points])
    b = partition.block_of
    q = (b[:, None] == blocks) * np.sqrt(inst.space.weights / partition.block_masses[b])[:, None]
    u_hat, w_hat = inst.units
    return (np.conj(u_hat)[:, None] * q, w_hat[:, None] * q,
            inst.sigma[partition.first_points[blocks]])


def closed_func_calc(
    sigma: np.ndarray, fns: Sequence[Callable[[float], complex]]
) -> tuple[np.ndarray, np.ndarray]:
    """f(T* T) and f(T T*) in closed form over fns, as (f(0), c) for the
    (K,) kept sigma_B of closed_polar: f(T* T) = f(0) I + v diag(c) v* and
    f(T T*) = f(0) I + l diag(c) l* on its frames, with c = f(sigma_B^2) -
    f(0), since T* T = sum_B sigma_B^2 v_B v_B* and T T* = sum_B sigma_B^2
    l_B l_B*.

    Each f is evaluated at 0 and once per kept block, for both products. A
    sigma^2 or f(sigma^2) beyond the float range raises ValueError.
    """
    f0 = np.asarray([complex(f(0.0)) for f in fns])
    # Python floats: a square beyond the float range is inf, without a warning.
    p = [s * s for s in sigma.tolist()]
    fp = np.asarray([[f(x) for x in p] for f in fns], dtype=complex).reshape(len(fns), -1)
    return f0, require_finite(fp - f0[:, None])
