"""The certification checks: every closed form against its oracle.

Each check function takes a per-instance context and returns the records
RECORDS lists for its group, so a report always contains the same record
names for every instance of a group (skips included). Randomness inside a
check is seeded from the instance digest, which keeps reports
deterministic and order-independent.

Records carry the measured residual and the bound it was compared
against. For most checks the bound is an upper bound; separation checks
(an operator that must NOT vanish) record bound="lower".
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .condexp import Sandwich, cond_exp_values
from .errors import NotNormalError
from .instance_io import InstanceBundle, instance_digest, serialize_instance
from .measure import Partition
from .opalgebra import (
    RANK_TOL,
    SvdOracle,
    max_op_deviation,
    op_deviations,
    require_finite,
    spectral_norms,
)
from .spectral import AvgMult, check_spectral_axioms, pushforward_density
from .wce import (
    WceInstance,
    build_operator,
    closed_abs_sqrt,
    closed_aluthge,
    closed_func_calc,
    closed_polar,
    norm_formula,
    partial_isometry_criterion,
)


# The one comparison tolerance a run can set (--tol): relative operator
# comparisons.
DEFAULT_TOL = 1e-8
# Bounds that no run changes.
AXIOM_TOL = 1e-9           # spectral measure axioms
MASS_TOL = 1e-12           # pushforward mass conservation (relative)
POINTWISE_SLACK = 1e-12    # additive slack for pointwise inequalities


# Every record a check group can return, with its statement, group by
# group in registry order. A group returns exactly these names on every
# instance, skips included.
RECORDS: dict[str, dict[str, str]] = {
    "condexp": {
        "ce_idempotent": "E(E(f)) = E(f)",
        "ce_range": "E maps onto, and fixes, the blockwise-constant functions",
        "ce_module": "E(f g) = E(f) g for blockwise-constant g",
        "ce_jensen": "|E(f)|^p <= E(|f|^p) pointwise, p in {1, 2, 4}",
        "ce_positive": "f >= 0 implies E(f) >= 0; f > 0 implies E(f) > 0",
        "ce_hoelder": "|E(f g)| <= E(|f|^p)^(1/p) E(|g|^q)^(1/q), conjugate p, q",
        "ce_support": "S(f) contained in S(E(f)) for f >= 0",
        "ce_selfadjoint": "<E f, g> = <f, E g> in the weighted inner product",
    },
    "norm": {
        "norm_formula": "max sqrt(E(|w|^2) E(|u|^2)) equals the operator norm of T",
    },
    "vanishing": {
        "vanishing_disjoint": "M_g T = 0 when g lives off the kept blocks",
        "vanishing_meets": "M_g T stays away from 0 when g is alive on a kept block",
    },
    "partial_isometry": {
        "partial_isometry": "E(|w|^2) E(|u|^2) is an indicator function iff T T* T = T",
    },
    "func_calc": {
        name: "closed functional calculus equals the calculus on the SVD of T "
              "for {1, t, t^2, t^3, sqrt, exp(-t)}"
        for name in ("func_calc_gram", "func_calc_cogram")
    },
    "polar": {
        "polar_abs": "closed |T| equals (T* T)^(1/2) read off the SVD of T",
        "polar_isometry": "closed U equals the SVD polar factor",
        "polar_factorization": "U |T| reassembles T",
        "polar_projection": "U* U is an orthogonal projection",
        "polar_kernels": "U, |T|, T share one kernel",
    },
    "aluthge": {
        "aluthge_closed": "closed Aluthge transform equals |T|^(1/2) U |T|^(1/2)",
        "aluthge_root": "the closed half-power factor squares to |T|",
    },
    "normality": {
        "normality": "||[E M_u, (E M_u)*]|| is the largest sqrt(E|u - E u|^2) "
                     "sqrt(E|u|^2) over the blocks, 0 iff u is blockwise constant",
    },
    "spectrum": {
        "spectrum": "spectrum of E M_u is the set of block means of u, with 0 "
                    "unless E M_u is invertible",
    },
    "spectral_decomp": {
        "sd_projections": "each spectral projection is idempotent and self-adjoint",
        "sd_orthogonality": "spectral projections are pairwise orthogonal",
        "sd_reconstruction": "sum of lambda_n P_n reassembles E M_u",
        "sd_rank_sum": "projection ranks add up to the dimension",
        "sd_eigs_match": "decomposition eigenvalues match the spectrum",
    },
    "measure_axioms": {
        "sm_proj_ambient": "each measure value is an orthogonal projection (ambient)",
        "sm_empty_ambient": "the empty set maps to the zero operator (ambient)",
        "sm_intersect_ambient": "intersections map to operator products (ambient)",
        "sm_additive_ambient": "disjoint unions map to operator sums (ambient)",
        "sm_proj_subspace": "each measure value is an orthogonal projection (fiber subspace)",
        "sm_empty_subspace": "the empty set maps to the zero operator (fiber subspace)",
        "sm_full_subspace": "the whole set maps to the identity on the fiber subspace",
        "sm_intersect_subspace": "intersections map to operator products (fiber subspace)",
        "sm_additive_subspace": "disjoint unions map to operator sums (fiber subspace)",
        "sm_mass_conservation": "the pushforward density preserves total mass",
    },
    "reconstruction": {
        "sm_reconstruction": "sum of v(s) measure({s}) reassembles f -> E_phi(u f)",
    },
}
_STATEMENTS = {name: st for names in RECORDS.values() for name, st in names.items()}


@dataclass
class CheckRecord:
    name: str
    statement: str
    status: str                 # "pass" | "fail" | "skip"
    residual: float | None
    tol: float | None
    instance_digest: str
    bound: str = "upper"        # "upper": residual <= tol; "lower": residual > tol
    reason: str = ""
    instance_doc: str = ""

    def to_doc(self) -> dict:
        doc = {
            "name": self.name,
            "statement": self.statement,
            "status": self.status,
            "residual": self.residual,
            "tol": self.tol,
            "bound": self.bound,
            "instance_digest": self.instance_digest,
        }
        if self.reason:
            doc["reason"] = self.reason
        if self.instance_doc:
            doc["instance"] = self.instance_doc
        return doc


@dataclass
class CheckContext:
    """Everything a check needs for one instance.

    The matrix of T, its one SVD (its norm, polar factors, half-power
    root, kernel and both Gram calculi are read off it), the closed polar
    pair and the matrix of its |T|, E M_u (an AvgMult, which caches its
    matrix, the block spread of u and the eigenvalue groups) and the
    eigenvalues of that matrix are each computed once, on first use, and
    shared by every check group. The point map caches its own fiber
    partition and fiber average. Every matrix is in the orthonormal basis
    of the weighted space (see Partition.cond_exp_matrix), so the adjoint
    is the conjugate transpose.
    The oracles still see only these dense matrices, never the partition.
    """

    bundle: InstanceBundle
    tol: float = DEFAULT_TOL

    @cached_property
    def doc(self) -> str:
        """The instance file, the one attached to failing records."""
        return serialize_instance(self.bundle)

    @cached_property
    def digest(self) -> str:
        """The digest of doc, which names the instance in every record."""
        return instance_digest(self.doc)

    @property
    def instance(self) -> WceInstance:
        return self.bundle.instance

    def seed(self, salt: str) -> int:
        """Seed derived from the instance digest and a per-check salt."""
        return int.from_bytes(
            hashlib.sha256((self.digest + ":" + salt).encode()).digest()[:8], "big"
        )

    def rng(self, salt: str) -> np.random.Generator:
        return np.random.default_rng(self.seed(salt))

    @cached_property
    def t(self) -> np.ndarray:
        """The operator f -> w E(u f) as a dense matrix. Entries that
        overflow make T unrepresentable: its build then raises the same
        ValueError in every group that needs T."""
        return build_operator(self.instance)

    @cached_property
    def svd(self) -> SvdOracle:
        """The one factorization of T every oracle quantity of T comes from."""
        return SvdOracle(self.t)

    @cached_property
    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """SVD polar factors (U, |T|) of T."""
        return self.svd.polar()

    @cached_property
    def polar_closed(self) -> tuple[Sandwich, Sandwich]:
        """The closed polar pair (U, |T|)."""
        return closed_polar(self.instance)

    @cached_property
    def abs_closed(self) -> np.ndarray:
        """The matrix of the closed |T|, shared by polar and aluthge."""
        return self.polar_closed[1].matrices()

    @cached_property
    def avg_mult(self) -> AvgMult:
        """E M_u, f -> E(u f), at the run's tolerance: its matrix, block
        spread and eigenvalue groups serve normality, spectrum and
        spectral_decomp."""
        return AvgMult(self.instance.u, self.instance.partition, self.tol)

    @cached_property
    def avg_mult_eigvals(self) -> np.ndarray:
        """The numerical eigenvalues of E M_u. LAPACK returns NaN, without
        an error, for a matrix whose norm leaves the float range; such
        eigenvalues raise ValueError."""
        eigvals = np.linalg.eigvals(self.avg_mult.matrix)
        if not np.isfinite(eigvals).all():
            raise ValueError("eigenvalues of E M_u are not finite")
        return eigvals

    def record(
        self, name: str, residual: float, tol: float, bound: str = "upper"
    ) -> CheckRecord:
        """Pass or fail of name on its measured residual; the statement is
        read off RECORDS."""
        ok = residual <= tol if bound == "upper" else residual > tol
        return CheckRecord(
            name=name,
            statement=_STATEMENTS[name],
            status="pass" if ok else "fail",
            residual=float(residual),
            tol=float(tol),
            instance_digest=self.digest,
            bound=bound,
            instance_doc="" if ok else self.doc,
        )

    def breakdown(self, name: str, reason: str) -> CheckRecord:
        """Failing record for a check whose group raised before measuring."""
        return CheckRecord(
            name=name,
            statement="the check group ran to completion",
            status="fail",
            residual=None,
            tol=None,
            instance_digest=self.digest,
            reason=reason,
            instance_doc=self.doc,
        )

    def skip(self, name: str, reason: str) -> CheckRecord:
        return CheckRecord(
            name=name,
            statement=_STATEMENTS[name],
            status="skip",
            residual=None,
            tol=None,
            instance_digest=self.digest,
            reason=reason,
        )


# ---------------------------------------------------------------------------
# Functional calculus test functions


def calculus_test_functions() -> tuple[tuple[str, Callable[[float], complex]], ...]:
    """The standard test suite {1, t, t^2, t^3, sqrt, exp(-t)}, on the
    nonnegative spectrum of a Gram product."""
    return (
        ("one", lambda t: 1.0),
        ("t", lambda t: t),
        ("t^2", lambda t: t * t),
        ("t^3", lambda t: t * t * t),
        ("sqrt", math.sqrt),
        ("exp(-t)", lambda t: math.exp(-t)),
    )


# ---------------------------------------------------------------------------
# Conditional expectation property suite


def _polar(mags: np.ndarray, phases: np.ndarray, low: float, high: float) -> np.ndarray:
    """uniform(low, high) * exp(i uniform(0, 2 pi)) from uniform draws in
    [0, 1), each mapped the way Generator.uniform(lo, hi) maps its draw,
    lo + (hi - lo) x: the values uniform calls in the same order give."""
    return (low + (high - low) * mags) * np.exp(1j * (2 * np.pi * phases))


def _random_phases(rng: np.random.Generator, shape: tuple[int, ...], low: float,
                   high: float) -> np.ndarray:
    """uniform(low, high) * exp(i uniform(0, 2 pi)) in the given shape,
    drawn as one rng.random block of (magnitude, phase) pairs, one pair
    after another."""
    r = rng.random(shape + (2,))
    return _polar(r[..., 0], r[..., 1], low, high)


def _worst(*candidates: np.ndarray) -> float:
    """The largest candidate, or 0 when none is positive. A NaN candidate
    counts for nothing, as in a running max() over the samples."""
    return max(0.0, *np.concatenate(candidates).tolist())


def _condexp_samples(
    partition: Partition, rng: np.random.Generator, samples: int
) -> tuple[np.ndarray, ...]:
    """The sample functions of condexp_property_residuals, one row per
    sample: f, g, the blockwise-constant g, the shift that makes f strictly
    positive, and the mask of points where f is set to zero.

    They are drawn as one rng.random block of (samples, 5n + 2K + 1)
    uniform draws, K the block count. Each row is one sample, in this
    order: f and g (n magnitudes, then n phases, each), the
    blockwise-constant g (a (magnitude, phase) pair per block), the shift,
    and the n draws of the mask. Each draw is mapped as Generator.uniform
    maps it (see _polar), so every sample is the one that uniform and
    random calls in that order, one sample after another, give.
    """
    n, k = partition.space.n, partition.block_count
    r = rng.random((samples, 5 * n + 2 * k + 1))
    # (sample, f or g, magnitude or phase, point)
    fg = r[:, :4 * n].reshape(samples, 2, 2, n)
    f, g = _polar(fg[:, :, 0], fg[:, :, 1], 0.0, 4.0).swapaxes(0, 1)
    pairs = r[:, 4 * n:4 * n + 2 * k]
    g_meas = _polar(pairs[:, 0::2], pairs[:, 1::2], 0.0, 4.0)[:, partition.block_of]
    shift = 0.05 + (0.5 - 0.05) * r[:, 4 * n + 2 * k]
    sparse = r[:, 4 * n + 2 * k + 1:] < 0.4
    return f, g, g_meas, shift, sparse


def condexp_property_residuals(
    partition: Partition, rng: np.random.Generator, samples: int = 3
) -> dict[str, float]:
    """Worst normalized residual per averaging-projection property, over
    freshly drawn sample functions.

    Every residual is scaled so that a correct implementation sits at
    rounding level and a violation is order one; set-valued properties
    (strict positivity, support growth) report 0 or 1.

    All samples are drawn first, as one rng.random block (see
    _condexp_samples). Every property is then evaluated on (samples, n)
    stacks, with each sample normalized on its own. E is applied in three
    stacked block reductions: one of every complex function, one of every
    real one, and E(E(f)).
    """
    w = partition.space.weights

    def ev(x: np.ndarray) -> np.ndarray:
        return cond_exp_values(partition, x)

    def peak(x: np.ndarray) -> np.ndarray:
        return np.abs(x).max(axis=1)

    f, g, g_meas, shift, sparse = _condexp_samples(partition, rng, samples)
    abs_f, abs_g = np.abs(f), np.abs(g)
    f_sparse = np.where(sparse, 0.0, abs_f)
    ef, e_g_meas, e_f_g_meas, e_fg, eg = ev(np.stack((f, g_meas, f * g_meas, f * g, g)))
    (e_abs_f1, e_abs_f2, e_abs_f4, e_positive, e_abs_g2, e_abs_g43,
     ef_sparse) = ev(np.stack((abs_f, abs_f ** 2, abs_f ** 4, abs_f + shift[:, None],
                               abs_g ** 2.0, abs_g ** (4.0 / 3.0), f_sparse)))
    e_abs_f = {1: e_abs_f1, 2: e_abs_f2, 4: e_abs_f4}
    res: dict[str, float] = {}
    scale_f = 1.0 + peak(f)

    # E(E(f)) = E(f)
    res["idempotent"] = _worst(peak(ev(ef) - ef) / scale_f)

    # E(f) is blockwise constant; E fixes blockwise-constant functions.
    res["range"] = _worst(
        peak(ef - ef[:, partition.first_points][:, partition.block_of]) / scale_f,
        peak(e_g_meas - g_meas) / (1.0 + peak(g_meas)),
    )

    # E(f g) = E(f) g for blockwise-constant g.
    res["module"] = _worst(
        peak(e_f_g_meas - ef * g_meas) / (1.0 + peak(f) * peak(g_meas))
    )

    # |E(f)|^p <= E(|f|^p) pointwise; E(|f|^p) serves Hoelder too.
    res["jensen"] = _worst(*(
        (np.abs(ef) ** p - e_abs_f[p]).max(axis=1) / (1.0 + e_abs_f[p].max(axis=1))
        for p in (1, 2, 4)
    ))

    # f >= 0 implies E(f) >= 0; f > 0 implies E(f) > 0.
    res["positive"] = _worst(-e_abs_f[1].min(axis=1) / (1.0 + abs_f.max(axis=1)))
    if np.any(e_positive.min(axis=1) <= 0.0):
        res["positive"] = max(res["positive"], 1.0)

    # |E(f g)| <= E(|f|^p)^(1/p) E(|g|^q)^(1/q) pointwise.
    left = np.abs(e_fg)
    right = [e_abs_f[p] ** (1 / p) * e_abs_g ** (1 / q)
             for p, q, e_abs_g in ((2, 2.0, e_abs_g2), (4, 4.0 / 3.0, e_abs_g43))]
    res["hoelder"] = _worst(*((left - r).max(axis=1) / (1.0 + r.max(axis=1))
                              for r in right))

    # Support growth: for f >= 0 with exact zeros, S(f) is contained in
    # S(E(f)); exact set semantics, threshold 0.
    if not np.all(np.isfinite(ef_sparse)):
        raise ValueError("E of a sample function is not finite")
    res["support"] = float(np.any((f_sparse > 0.0) & (ef_sparse == 0.0)))

    # <E f, g> = <f, E g> in the weighted inner product.
    # One complex pair per sample, measured with Python's abs (np.abs of a
    # complex number can differ from it in the last bit).
    a = np.sum(ef * np.conj(g) * w, axis=1).tolist()
    b = np.sum(f * np.conj(eg) * w, axis=1).tolist()
    res["selfadjoint"] = max(0.0, *(abs(x - y) / (1.0 + abs(x) + abs(y))
                                    for x, y in zip(a, b)))

    return res


def check_condexp(ctx: CheckContext) -> list[CheckRecord]:
    res = condexp_property_residuals(ctx.instance.partition, ctx.rng("condexp"))
    return [ctx.record(name, res[name.removeprefix("ce_")], POINTWISE_SLACK)
            for name in RECORDS["condexp"]]


# ---------------------------------------------------------------------------
# Closed-form checks


def check_norm(ctx: CheckContext) -> list[CheckRecord]:
    # T first: a T that failed to build breaks this group with the same
    # error as every other group that needs it.
    t_norm = ctx.svd.norm
    nf = norm_formula(ctx.instance)
    residual = abs(nf - t_norm) / (1.0 + nf)
    return [ctx.record("norm_formula", residual, ctx.tol)]


def check_vanishing(ctx: CheckContext) -> list[CheckRecord]:
    inst = ctx.instance
    rng = ctx.rng("vanishing")
    t = ctx.t
    t_norm = ctx.svd.norm
    blocks = inst.partition.block_of
    in_kept = inst.kept[inst.partition.first_points]
    block_kept = np.flatnonzero(in_kept)

    # g supported off the kept blocks leaves M_g T below the rank cut.
    g_blocks = np.zeros(in_kept.size, dtype=complex)
    g_blocks[~in_kept] = _random_phases(rng, (int((~in_kept).sum()),), 0.5, 2.0)
    g1 = g_blocks[blocks]
    # g alive on a kept block keeps M_g T above the cut.
    gs = [g1]
    if block_kept.size:
        pick = block_kept[int(rng.integers(0, block_kept.size))]
        g_pick = rng.uniform(0.5, 2.0)
        gs.append(np.where(blocks == pick, g_pick, 0.0))
    norms = spectral_norms(np.stack([g[:, None] * t for g in gs]))

    res1 = norms[0] / ((1.0 + t_norm) * (1.0 + float(np.abs(g1).max(initial=0.0))))
    records = [ctx.record("vanishing_disjoint", res1, RANK_TOL)]
    if block_kept.size:
        # ||M_g T|| / (max|g| ||T||) is sigma_B / sigma_max on the picked
        # block: the rank cut seen from the kept side.
        records.append(ctx.record("vanishing_meets", norms[1] / (g_pick * t_norm),
                                  RANK_TOL, bound="lower"))
    else:
        records.append(ctx.skip("vanishing_meets",
                                "the product E(|w|^2) E(|u|^2) vanishes identically"))
    return records


def check_partial_isometry(ctx: CheckContext) -> list[CheckRecord]:
    inst = ctx.instance
    t = ctx.t
    # The oracle side first: Gram products that overflow break the group
    # down there, as in every group that needs them, and so does T T* T.
    with np.errstate(over="ignore", invalid="ignore"):
        ttt = require_finite(require_finite(t @ t.conj().T) @ t)
    residual = float(spectral_norms(ttt - t)) / max(1.0, ctx.svd.norm)
    is_pi = partial_isometry_criterion(inst, ctx.tol)
    # Equivalence: when the criterion says partial isometry the oracle
    # residual must vanish, otherwise it must not.
    return [ctx.record("partial_isometry", residual, ctx.tol,
                       bound="upper" if is_pi else "lower")]


def check_func_calc(ctx: CheckContext) -> list[CheckRecord]:
    fns = tuple(f for _, f in calculus_test_functions())
    svd = ctx.svd
    # T* T and T T* share their spectrum, so one table of function values
    # serves both. Their eigenbases are orthonormal, so max_k |f(lambda_k)|
    # is the norm of each oracle matrix.
    values = svd.squares().tolist()
    fvals = np.asarray([[f(v) for v in values] for f in fns], dtype=complex)
    f_norms = np.abs(fvals).max(axis=1)
    # Taken with next(), not zip(): zip holds the last stack while the
    # generator builds the next one.
    closed_stacks = closed_func_calc(ctx.instance, fns)
    records: list[CheckRecord] = []
    for name, oracle_calc in (("func_calc_gram", svd.gram_calc),
                              ("func_calc_cogram", svd.cogram_calc)):
        closed = next(closed_stacks)
        oracle = oracle_calc(fvals)
        worst = max_op_deviation(np.subtract(closed, oracle, out=oracle), f_norms)
        # Free both stacks before the next closed form is built, or they
        # add a stack to the peak memory of its build.
        del closed, oracle
        records.append(ctx.record(name, worst, 10 * ctx.tol))
    return records


def check_polar(ctx: CheckContext) -> list[CheckRecord]:
    t = ctx.t
    u_closed, abs_closed = ctx.polar_closed
    u_mat, abs_mat = u_closed.matrices(), ctx.abs_closed
    u_ref, abs_ref = ctx.polar
    uu = u_closed.adjoint() @ u_closed
    k_u, k_abs = SvdOracle(u_mat).kernel(), SvdOracle(abs_mat).kernel()
    k_t = ctx.svd.kernel()
    k_ref = np.stack((k_abs, k_t, k_t))
    # An orthogonal projection has norm 1, or 0 when its trace (its rank)
    # is 0.
    k_norms = (np.trace(k_ref, axis1=1, axis2=2).real > 0.5).astype(float)
    kernel_res = op_deviations(np.stack((k_u, k_abs, k_u)), k_ref, k_norms).max()
    # The kernel comparisons are a stack of their own: one stack of all six
    # pairs raised the peak memory of a dense n = 64 run by 0.4-0.7 MB.
    # The oracle norms: ||T|| = || |T| ||, and the SVD partial isometry
    # has norm 1 unless T = 0.
    t_norm = ctx.svd.norm
    abs_res, iso_res, fact_res = op_deviations(
        np.stack((abs_mat, u_mat, (u_closed @ abs_closed).matrices())),
        np.stack((abs_ref, u_ref, t)),
        np.array([t_norm, float(t_norm > 0.0), t_norm]))
    proj_res = float(spectral_norms((uu @ uu).matrices() - uu.matrices()))
    return [
        ctx.record("polar_abs", abs_res, ctx.tol),
        ctx.record("polar_isometry", iso_res, ctx.tol),
        ctx.record("polar_factorization", fact_res, ctx.tol),
        ctx.record("polar_projection", proj_res, ctx.tol),
        ctx.record("polar_kernels", kernel_res, 10 * ctx.tol),
    ]


def check_aluthge(ctx: CheckContext) -> list[CheckRecord]:
    inst = ctx.instance
    svd = ctx.svd
    u_ref, _ = ctx.polar
    root = svd.root()
    oracle = root @ u_ref @ root
    # On the kept singular vectors the oracle is R_k C R_k* with the
    # rank x rank core C = S (R_k* L_k) S, S = Sigma_k^(1/2), and R_k has
    # orthonormal columns, so ||C|| is the oracle's norm.
    s = np.sqrt(svd.sigma[svd.keep])
    core = s[:, None] * (svd.right_h[svd.keep] @ svd.left[:, svd.keep]) * s
    closed = closed_aluthge(inst)
    v = closed_abs_sqrt(inst)
    # || |T| || = ||T|| is the reference norm of the closed |T|.
    closed_res, root_res = op_deviations(
        np.stack((closed.matrices(), (v @ v).matrices())),
        np.stack((oracle, ctx.abs_closed)),
        np.array([float(spectral_norms(core)), ctx.svd.norm]))
    return [
        ctx.record("aluthge_closed", closed_res, ctx.tol),
        ctx.record("aluthge_root", root_res, ctx.tol),
    ]


# ---------------------------------------------------------------------------
# Spectral checks


def _eigvals_match_residual(expected: Sequence[complex],
                            computed: Sequence[complex]) -> float:
    """Set distance from expected to the computed numerical eigenvalues,
    relative to 1 + the largest of them.

    Each distance is np.hypot of the parts of a difference: bit for bit
    Python's abs of a complex number, where np.abs can differ from it in
    the last bit. As abs does, a modulus of finite parts beyond the float
    range raises OverflowError, and a part that overflowed gives inf
    without a warning."""
    e = np.asarray(expected, dtype=complex)
    c = np.asarray(computed, dtype=complex)
    if not e.size and not c.size:
        return 0.0
    if not e.size or not c.size:
        return 1.0
    with np.errstate(over="ignore"):
        d = e[:, None] - c
        dist, size = np.hypot(d.real, d.imag), np.hypot(c.real, c.imag)
    if (np.isinf(dist) & np.isfinite(d)).any() or (np.isinf(size) & np.isfinite(c)).any():
        raise OverflowError("absolute value too large")
    gap = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    return float(gap / (1.0 + size.max()))


def check_normality(ctx: CheckContext) -> list[CheckRecord]:
    m = ctx.avg_mult.matrix
    m_adj = m.conj().T
    # Entries that overflow fail the build of the products; numpy's
    # overflow warning would only repeat that error. So does a scale
    # 1 + ||E M_u||^2 beyond the float range: no residual can be read
    # against it.
    with np.errstate(over="ignore", invalid="ignore"):
        commutator = require_finite(m @ m_adj - m_adj @ m)
        # The closed norm is 0 exactly when u is blockwise constant.
        closed = float(np.prod(ctx.avg_mult.spread, axis=0).max())
        comm_norm, m_norm = spectral_norms(np.stack((commutator, m)))
        scale = 1.0 + m_norm ** 2
    if not np.isfinite(scale):
        raise ValueError("1 + ||E M_u||^2 is not finite")
    return [ctx.record("normality", abs(closed - comm_norm) / scale, ctx.tol)]


def check_spectrum(ctx: CheckContext) -> list[CheckRecord]:
    expected = ctx.avg_mult.spectrum()
    residual = _eigvals_match_residual(expected, ctx.avg_mult_eigvals)
    return [ctx.record("spectrum", residual, ctx.tol)]


def check_spectral_decomp(ctx: CheckContext) -> list[CheckRecord]:
    try:
        decomp = ctx.avg_mult.decomposition()
    except NotNormalError:
        return [ctx.skip(name, "u is not blockwise constant, E M_u is not normal")
                for name in RECORDS["spectral_decomp"]]
    m = ctx.avg_mult.matrix
    n = ctx.instance.space.n
    p = decomp.stack

    # ||P|| is taken once and is the reference norm of both projection
    # identities.
    p_norms = spectral_norms(p)
    proj_res = max(
        op_deviations(p @ p, p, p_norms).max(),
        (spectral_norms(p - p.conj().transpose(0, 2, 1)) / (1.0 + p_norms)).max(),
    )
    # One stack P_i P_j (j > i) per i; a stack of all pairs at once would
    # hold m^2 / 2 matrices.
    orth_res = max((spectral_norms(p[i] @ p[i + 1:]).max()
                    for i in range(len(p) - 1)), default=0.0)
    total_rank = int(np.rint(np.trace(p, axis1=1, axis2=2).real).sum())
    recon = np.einsum("k,kij->ij", np.array(decomp.eigenvalues), p)
    recon_res = op_deviations(recon[None], m[None])[0]

    eig_res = _eigvals_match_residual(decomp.eigenvalues, ctx.avg_mult_eigvals)

    return [
        ctx.record("sd_projections", proj_res, ctx.tol),
        ctx.record("sd_orthogonality", orth_res, ctx.tol),
        ctx.record("sd_reconstruction", recon_res, ctx.tol),
        ctx.record("sd_rank_sum", float(abs(total_rank - n)), 0.5),
        ctx.record("sd_eigs_match", eig_res, ctx.tol),
    ]


def check_measure_axioms(ctx: CheckContext) -> list[CheckRecord]:
    phi = ctx.bundle.point_map
    if phi is None:
        return [ctx.skip(name, "no point map on this instance")
                for name in RECORDS["measure_axioms"]]
    axioms = check_spectral_axioms(phi, seed=ctx.seed("axioms"))
    h = pushforward_density(phi)
    total = phi.space.total_mass
    mass_res = abs(float(np.sum(h.values.real * phi.space.weights)) - total) / total
    return [*(ctx.record(name, res, AXIOM_TOL) for name, res in axioms.items()),
            ctx.record("sm_mass_conservation", mass_res, MASS_TOL)]


def check_reconstruction(ctx: CheckContext) -> list[CheckRecord]:
    phi = ctx.bundle.point_map
    if phi is None:
        return [ctx.skip("sm_reconstruction", "no point map on this instance")]
    rng = ctx.rng("reconstruction")
    # Three seeded symbols, constant on the fibers by construction, drawn
    # as one (3, K, 2) block for the K fibers.
    fibers = phi.partition
    symbols = _random_phases(rng, (3, fibers.block_count), 0.0, 4.0)[:, fibers.block_of]
    # f -> E_phi(u f), one matrix per symbol.
    direct = Sandwich(fibers, np.ones(phi.space.n), symbols).matrices()
    worst = op_deviations(phi.reconstruct(symbols), direct).max()
    return [ctx.record("sm_reconstruction", worst, AXIOM_TOL)]


# ---------------------------------------------------------------------------
# Registry

CHECK_GROUPS: dict[str, Callable[[CheckContext], list[CheckRecord]]] = {
    "condexp": check_condexp,
    "norm": check_norm,
    "vanishing": check_vanishing,
    "partial_isometry": check_partial_isometry,
    "func_calc": check_func_calc,
    "polar": check_polar,
    "aluthge": check_aluthge,
    "normality": check_normality,
    "spectrum": check_spectrum,
    "spectral_decomp": check_spectral_decomp,
    "measure_axioms": check_measure_axioms,
    "reconstruction": check_reconstruction,
}

BASIC_GROUPS = ("condexp", "norm", "vanishing", "partial_isometry",
                "func_calc", "polar", "aluthge")
FULL_GROUPS = tuple(CHECK_GROUPS)
