"""Closed-form decompositions of weighted conditional-expectation operators.

An instance fixes a partition and two complex symbols u and w. The
operator under study sends f to w * E(u f), where E averages over the
partition blocks. Its norm, polar decomposition, Aluthge transform, and
the functional calculus of the two Gram-type products all reduce to
algebraic expressions in the block aggregates E(|u|^2), E(|w|^2) and
E(u w); this module builds them as factored M_a E M_b values (Sandwich)
whose matrices, with the matrix of T, the oracles in opalgebra certify.

Every closed form lives on the kept blocks: those whose singular value
sigma_B = sqrt(E(|u|^2) E(|w|^2)) exceeds RANK_TOL times the largest, the
cut SvdOracle makes on the singular values of the matrix of T. So both
sides of every check agree on T's rank. Quotients such as
E(|w|^2) / E(|u|^2) are evaluated as "reciprocal on the kept blocks, zero
off them".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .condexp import Sandwich, cond_exp_values
from .measure import FiniteMeasureSpace, MeasurableFunction, Partition
from .opalgebra import RANK_TOL


@dataclass(frozen=True, eq=False)
class WceInstance:
    """Partition plus symbols u, w on its space, with the derived block
    aggregates cached."""

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
    def eu2(self) -> np.ndarray:
        """E(|u|^2), blockwise constant, nonnegative; inf where |u|^2
        overflows."""
        with np.errstate(over="ignore"):
            return cond_exp_values(self.partition, np.abs(self.u.values) ** 2)

    @cached_property
    def ew2(self) -> np.ndarray:
        """E(|w|^2), blockwise constant, nonnegative; inf where |w|^2
        overflows."""
        with np.errstate(over="ignore"):
            return cond_exp_values(self.partition, np.abs(self.w.values) ** 2)

    @cached_property
    def euw(self) -> np.ndarray:
        """E(u w), blockwise constant, complex; not finite where u w
        overflows, and then so is E(|u|^2) or E(|w|^2)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return cond_exp_values(self.partition, self.u.values * self.w.values)

    @cached_property
    def sigma(self) -> np.ndarray:
        """T's singular value sigma_B = sqrt(E(|u|^2)) sqrt(E(|w|^2)) at
        each point of block B.

        Each factor is rooted before the product, so it cannot overflow. A
        non-finite aggregate has no singular value, so it raises ValueError
        (E(|u|^2) first): every closed form reads kept before it multiplies
        by an aggregate, so none of them computes with one that overflowed.
        """
        for agg, name in ((self.eu2, "E(|u|^2)"), (self.ew2, "E(|w|^2)")):
            if not np.isfinite(agg).all():
                raise ValueError(f"{name} is not finite")
        return np.sqrt(self.eu2) * np.sqrt(self.ew2)

    @cached_property
    def kept(self) -> np.ndarray:
        """Points of the blocks whose sigma_B exceeds RANK_TOL times the
        largest; empty when T = 0. The one rank cut of the closed forms."""
        return self.sigma > RANK_TOL * float(self.sigma.max(initial=0.0))


def _masked_recip(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """1/values on the mask, 0 off it."""
    safe = np.where(mask, values, 1.0)
    return np.where(mask, 1.0 / safe, 0.0)


# A kept block may still carry an aggregate near the ends of the float
# range (crossed aggregates: E(|u|^2) ~ 1e-310 where E(|w|^2) ~ 1e300), so a
# closed-form coefficient can overflow. The closed forms compute under
# this state, and the non-finite entries raise ValueError, without a numpy
# warning, where Sandwich.matrices() makes them matrices.
_quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def build_operator(inst: WceInstance) -> np.ndarray:
    """The matrix of f -> w * E(u f), for the oracles."""
    return Sandwich(inst.partition, inst.w.values, inst.u.values).matrices()


def norm_formula(inst: WceInstance) -> float:
    """Closed-form operator norm: max_x sqrt(E(|w|^2) E(|u|^2))(x).

    The essential supremum is a plain maximum because every point has
    positive mass. An aggregate product beyond the float range leaves no
    norm to compare, so it raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        peak = float((inst.ew2 * inst.eu2).max())
    if not math.isfinite(peak):
        raise ValueError("E(|w|^2) E(|u|^2) is not finite")
    return math.sqrt(peak)


def partial_isometry_criterion(inst: WceInstance, tol: float = 1e-8) -> bool:
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


@_quiet
def _func_calc(inst: WceInstance, fns: Sequence[Callable[[float], complex]],
               r: np.ndarray, r_agg: np.ndarray) -> np.ndarray:
    """f(X) for X = M_{c conj(r)} E M_r, c E(|r|^2) = E(|u|^2) E(|w|^2), with
    r_agg = E(|r|^2): f(X) = f(0) I + M_{chi / E(|r|^2)}
    (M_{f o (E(|u|^2) E(|w|^2))} - f(0) I) M_conj(r) E M_r, chi the
    indicator of the kept blocks.

    Returns the matrices of f(X) for every f in fns as one (m, n, n) stack.
    E(|u|^2) E(|w|^2) is blockwise constant, so each f is evaluated once
    per block, on the block's first point.
    """
    kept = inst.kept
    partition = inst.partition
    f0 = np.asarray([complex(f(0.0)) for f in fns])
    first = partition.first_points
    p = (inst.eu2[first] * inst.ew2[first]).tolist()
    fp = np.asarray([[f(v) for v in p] for f in fns], dtype=complex)[:, partition.block_of]
    d = _masked_recip(r_agg, kept) * (fp - f0[:, None])
    stack = Sandwich(partition, d * np.conj(r), r).matrices()
    diag = np.arange(inst.space.n)
    stack[:, diag, diag] += f0[:, None]
    return stack


def closed_func_calc_gram(
    inst: WceInstance, fns: Sequence[Callable[[float], complex]]
) -> np.ndarray:
    """f(T* T) in closed form for each f in fns, as an (m, n, n) stack;
    _func_calc with r = u. For f(t) = t^n this is the power formula
    conj(u) E(|w|^2)^n E(|u|^2)^(n-1) E(u .)."""
    return _func_calc(inst, fns, inst.u.values, inst.eu2)


def closed_func_calc_cogram(
    inst: WceInstance, fns: Sequence[Callable[[float], complex]]
) -> np.ndarray:
    """g(T T*) in closed form for each g in fns, as an (m, n, n) stack;
    _func_calc with r = conj(w)."""
    return _func_calc(inst, fns, np.conj(inst.w.values), inst.ew2)


@_quiet
def closed_polar(inst: WceInstance) -> tuple[Sandwich, Sandwich]:
    """Closed-form polar decomposition T = U |T|, returned as (U, |T|).

    |T| f = sqrt(E(|w|^2) / E(|u|^2)) chi conj(u) E(u f)
    U f   = sqrt(chi / (E(|w|^2) E(|u|^2))) w E(u f)

    chi is the indicator of the kept blocks, and both coefficients are
    taken as zero off them. U is a partial isometry sharing the kernel of
    |T| and T, which makes the decomposition the unique one.
    """
    kept = inst.kept
    abs_coef = np.sqrt(inst.ew2 * _masked_recip(inst.eu2, kept))
    u_coef = np.sqrt(_masked_recip(inst.ew2 * inst.eu2, kept))
    return (Sandwich(inst.partition, u_coef * inst.w.values, inst.u.values),
            Sandwich(inst.partition, abs_coef * np.conj(inst.u.values), inst.u.values))


@_quiet
def closed_abs_sqrt(inst: WceInstance) -> Sandwich:
    """Closed-form square root of |T|:

    V f = (E(|w|^2) / E(|u|^2)^3)^(1/4) chi conj(u) E(u f)

    V is positive with V^2 = |T|, so it equals |T|^(1/2); it is the
    half-power factor entering the Aluthge transform.
    """
    coef = (inst.ew2 * _masked_recip(inst.eu2, inst.kept) ** 3) ** 0.25
    return Sandwich(inst.partition, coef * np.conj(inst.u.values), inst.u.values)


@_quiet
def closed_aluthge(inst: WceInstance) -> Sandwich:
    """Closed-form Aluthge transform |T|^(1/2) U |T|^(1/2):

    f -> (chi E(u w) / E(|u|^2)) conj(u) E(u f)
    """
    coef = inst.euw * _masked_recip(inst.eu2, inst.kept)
    return Sandwich(inst.partition, coef * np.conj(inst.u.values), inst.u.values)
