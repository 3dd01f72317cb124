"""Closed-form decompositions of weighted conditional-expectation operators.

An instance fixes a partition and two complex symbols u and w. The
operator under study sends f to w * E(u f), where E averages over the
partition blocks. Its norm, polar decomposition, Aluthge transform, and
the functional calculus of the two Gram-type products all reduce to
algebraic expressions in the block aggregates E(|u|^2), E(|w|^2) and
E(u w); this module builds them as factored M_a E M_b values (Sandwich)
whose matrices, with the matrix of T, the oracles in opalgebra certify.

Quotients such as E(|w|^2) / E(|u|^2) appearing under an indicator of
the support are evaluated as "reciprocal on the support, zero off it".
Supports are resolved blockwise: a block belongs to the support of a
block aggregate iff its (constant) value exceeds the relative tolerance,
which cannot split a block because the aggregates are blockwise constant
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .condexp import Sandwich, cond_exp_values
from .errors import SpaceMismatchError
from .measure import (
    DEFAULT_SUPPORT_TOL,
    FiniteMeasureSpace,
    MeasurableFunction,
    Partition,
)


@dataclass(frozen=True, eq=False)
class WceInstance:
    """Partition plus symbols u, w, with the derived block aggregates cached."""

    partition: Partition
    u: MeasurableFunction
    w: MeasurableFunction
    support_tol: float = DEFAULT_SUPPORT_TOL

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

    def _block_support_mask(self, aggregate: np.ndarray, name: str) -> np.ndarray:
        """Points where the nonnegative aggregate (called name) exceeds
        support_tol times its peak; empty when the aggregate vanishes. The
        aggregate is blockwise constant, so the result is a union of blocks.
        An aggregate that is not finite has no peak to cut at, so it raises
        ValueError."""
        peak = float(aggregate.max(initial=0.0))
        if not math.isfinite(peak):
            raise ValueError(f"{name} is not finite")
        return aggregate > self.support_tol * peak

    @cached_property
    def _supports(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, G), cut together. This is where a non-finite E(|u|^2) or
        E(|w|^2) raises ValueError (E(|u|^2) first): every closed form reads
        a support before it multiplies by an aggregate, so none of them
        computes with an aggregate that overflowed."""
        return (self._block_support_mask(self.eu2, "E(|u|^2)"),
                self._block_support_mask(self.ew2, "E(|w|^2)"))

    @property
    def s_mask(self) -> np.ndarray:
        """Indicator of S, the support of E(|u|^2), as a block union."""
        return self._supports[0]

    @property
    def g_mask(self) -> np.ndarray:
        """Indicator of G, the support of E(|w|^2), as a block union."""
        return self._supports[1]

    @cached_property
    def sg_mask(self) -> np.ndarray:
        return self.s_mask & self.g_mask


def make_instance(
    partition: Partition,
    u: MeasurableFunction,
    w: MeasurableFunction,
    support_tol: float = DEFAULT_SUPPORT_TOL,
) -> WceInstance:
    if u.space != partition.space or w.space != partition.space:
        raise SpaceMismatchError("u, w, and partition must share one space")
    return WceInstance(partition, u, w, support_tol)


def _masked_recip(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """1/values on the mask, 0 off it."""
    safe = np.where(mask, values, 1.0)
    return np.where(mask, 1.0 / safe, 0.0)


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


def partial_isometry_criterion(
    inst: WceInstance, tol: float = 1e-8
) -> tuple[bool, np.ndarray]:
    """Whether E(|w|^2) E(|u|^2) is an indicator function, and of which set.

    Returns (is_pi, A) with A the boolean mask of the points where the
    product is within tol * (1 + max) of 1. is_pi is True iff every value
    of the product is within that distance of 0 or 1, which happens
    exactly when the operator is a partial isometry; the indicator set A
    must then be S and G. A non-finite aggregate raises ValueError: the
    supports are read before the product is formed.
    """
    inst.sg_mask
    p = inst.ew2 * inst.eu2
    bound = tol * (1.0 + float(p.max(initial=0.0)))
    near_one = np.abs(p - 1.0) <= bound
    return bool(np.all(near_one | (np.abs(p) <= bound))), near_one


def _func_calc(inst: WceInstance, fns: Sequence[Callable[[float], complex]],
               r: np.ndarray, r_agg: np.ndarray, r_mask: np.ndarray) -> np.ndarray:
    """f(X) for X = M_{c conj(r)} E M_r, c E(|r|^2) = E(|u|^2) E(|w|^2), with
    r_agg = E(|r|^2) and r_mask its support: f(X) = f(0) I + M_{chi / E(|r|^2)}
    (M_{f o (E(|u|^2) E(|w|^2))} - f(0) I) M_conj(r) E M_r.

    Returns the matrices of f(X) for every f in fns as one (m, n, n) stack.
    """
    f0 = np.asarray([complex(f(0.0)) for f in fns])
    p = inst.eu2 * inst.ew2
    fp = np.asarray([[f(float(v)) for v in p] for f in fns], dtype=complex)
    d = _masked_recip(r_agg, r_mask) * (fp - f0[:, None])
    stack = Sandwich(inst.partition, d * np.conj(r), r).matrices()
    diag = np.arange(inst.space.n)
    stack[:, diag, diag] += f0[:, None]
    return stack


def closed_func_calc_gram(
    inst: WceInstance, fns: Sequence[Callable[[float], complex]]
) -> np.ndarray:
    """f(T* T) in closed form for each f in fns, as an (m, n, n) stack;
    _func_calc with r = u. For f(t) = t^n this is the power formula
    conj(u) E(|w|^2)^n E(|u|^2)^(n-1) E(u .)."""
    return _func_calc(inst, fns, inst.u.values, inst.eu2, inst.s_mask)


def closed_func_calc_cogram(
    inst: WceInstance, fns: Sequence[Callable[[float], complex]]
) -> np.ndarray:
    """g(T T*) in closed form for each g in fns, as an (m, n, n) stack;
    _func_calc with r = conj(w)."""
    return _func_calc(inst, fns, np.conj(inst.w.values), inst.ew2, inst.g_mask)


def closed_polar(inst: WceInstance) -> tuple[Sandwich, Sandwich]:
    """Closed-form polar decomposition T = U |T|, returned as (U, |T|).

    |T| f = sqrt(E(|w|^2) / E(|u|^2)) chi_S conj(u) E(u f)
    U f   = sqrt(chi_{S and G} / (E(|w|^2) E(|u|^2))) w E(u f)

    Both coefficients are taken as zero off the indicated supports. U is
    a partial isometry sharing the kernel of |T| and T, which makes the
    decomposition the unique one.
    """
    abs_coef = np.sqrt(inst.ew2 * _masked_recip(inst.eu2, inst.s_mask))
    u_coef = np.sqrt(_masked_recip(inst.ew2 * inst.eu2, inst.sg_mask))
    return (Sandwich(inst.partition, u_coef * inst.w.values, inst.u.values),
            Sandwich(inst.partition, abs_coef * np.conj(inst.u.values), inst.u.values))


def closed_abs_sqrt(inst: WceInstance) -> Sandwich:
    """Closed-form square root of |T|:

    V f = (E(|w|^2) / E(|u|^2)^3)^(1/4) chi_S conj(u) E(u f)

    V is positive with V^2 = |T|, so it equals |T|^(1/2); it is the
    half-power factor entering the Aluthge transform.
    """
    coef = (inst.ew2 * _masked_recip(inst.eu2, inst.s_mask) ** 3) ** 0.25
    return Sandwich(inst.partition, coef * np.conj(inst.u.values), inst.u.values)


def closed_aluthge(inst: WceInstance) -> Sandwich:
    """Closed-form Aluthge transform |T|^(1/2) U |T|^(1/2):

    f -> (chi_S E(u w) / E(|u|^2)) conj(u) E(u f)
    """
    coef = inst.euw * _masked_recip(inst.eu2, inst.s_mask)
    return Sandwich(inst.partition, coef * np.conj(inst.u.values), inst.u.values)
