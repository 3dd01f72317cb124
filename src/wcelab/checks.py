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
from .generator import _draw_values
from .instance_io import InstanceBundle, instance_digest, serialize_instance
from .measure import Partition
from .opalgebra import (
    RANK_TOL,
    SvdOracle,
    frame_norms,
    op_deviations,
    reference_scale,
    require_finite,
    singular_values,
    spectral_norms,
)
from .spectral import AvgMult, check_spectral_axioms, pushforward_density
from .wce import (
    WceInstance,
    build_operator,
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
        "sd_eigs_match": "each eigenvalue is tr(P M) / tr(P) on its spectral projection P",
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

    The matrix of T, its one SVD (its norm, kept singular vectors, both
    Gram calculi and T T* T - T are read off it), the closed polar pair as
    its kept-block frames, the one QR of those frames next to T's kept
    singular vectors, and E M_u (an AvgMult, which caches its matrix, the
    block spread of u, the eigenvalue groups and the eigenvalues) are each
    computed once, on first use, and shared by every check group. The
    point map caches its own fiber partition and fiber average. Every matrix is in the orthonormal basis of the
    weighted space (see Partition.cond_exp_matrix), so the adjoint is the
    conjugate transpose.
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
    def polar_closed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The closed polar pair as its kept-block frames (v, l, sigma_B)."""
        return closed_polar(self.instance)

    @cached_property
    def frame_factors(self) -> np.ndarray:
        """The R factors S_g of W_g = [v, R_k] and S_c of W_c = [l, L_k],
        the closed frames next to T's kept singular vectors, as one (2, q,
        K + k) stack from one batched QR W = Z S, Z with q = min(n, K + k)
        orthonormal columns. Every operator that lives on these frames,
        each func_calc, polar and aluthge residual, has its norm read off a
        q x q matrix built from them."""
        v, l, _ = self.polar_closed
        frames = np.concatenate((np.stack((v, l)), self.svd.vectors), axis=2)
        return np.linalg.qr(frames, mode="r")

    @cached_property
    def avg_mult(self) -> AvgMult:
        """E M_u, f -> E(u f), at the run's tolerance: its matrix, block
        spread and eigenvalue groups serve normality, spectrum and
        spectral_decomp."""
        return AvgMult(self.instance.u, self.instance.partition, self.tol)

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


def _worst(*candidates: np.ndarray) -> float:
    """The largest candidate, or 0 when none is positive; NaN when any
    candidate is NaN, so the record fails."""
    return float(np.max(np.concatenate(candidates), initial=0.0))


def condexp_property_residuals(
    partition: Partition, rng: np.random.Generator, samples: int = 3
) -> dict[str, float]:
    """Worst normalized residual per averaging-projection property, over
    freshly drawn sample functions.

    Every residual is scaled so that a correct implementation sits at
    rounding level and a violation is order one; set-valued properties
    (strict positivity, support growth) report 0 or 1.

    All samples are drawn first, one stack per family: f and g, the
    blockwise-constant g, the shift that makes f strictly positive, and the
    mask of points where f is set to zero. Every property is then evaluated
    on those stacks, with each sample normalized on its own. E is applied
    in three stacked block reductions: one of every complex function, one
    of every real one, and E(E(f)). An infinite mean of any of them
    raises ValueError before a residual is read.
    """
    w = partition.space.weights

    def ev(x: np.ndarray) -> np.ndarray:
        return cond_exp_values(partition, x)

    def peak(x: np.ndarray) -> np.ndarray:
        return np.abs(x).max(axis=1)

    n, blocks = partition.space.n, partition.block_of
    f, g = _draw_values(rng, (2, samples, n), 0.0, 4.0)
    g_meas = _draw_values(rng, (samples, partition.block_count), 0.0, 4.0)[:, blocks]
    shift = rng.uniform(0.05, 0.5, samples)
    sparse = rng.random((samples, n)) < 0.4
    abs_f, abs_g = np.abs(f), np.abs(g)
    f_sparse = np.where(sparse, 0.0, abs_f)
    complex_means = ev(np.stack((f, g_meas, f * g_meas, f * g, g)))
    real_means = ev(np.stack((abs_f, abs_f ** 2, abs_f ** 4, abs_f + shift[:, None],
                              abs_g ** 2.0, abs_g ** (4.0 / 3.0), f_sparse)))
    e_ef = ev(complex_means[0])
    # A block integral beyond the float range (a weight near the float
    # limit) leaves an infinite mean: no residual is read from it. A NaN
    # mean makes its residuals NaN, and they fail; only the set-valued
    # support growth would read it as a pass, so there it raises too.
    if (any(np.isinf(m).any() for m in (complex_means, real_means, e_ef))
            or not np.isfinite(real_means[-1]).all()):
        raise ValueError("E of a sample function is not finite")
    ef, e_g_meas, e_f_g_meas, e_fg, eg = complex_means
    (e_abs_f1, e_abs_f2, e_abs_f4, e_positive, e_abs_g2, e_abs_g43, ef_sparse) = real_means
    e_abs_f = {1: e_abs_f1, 2: e_abs_f2, 4: e_abs_f4}
    res: dict[str, float] = {}
    scale_f = reference_scale(peak(f))

    # E(E(f)) = E(f)
    res["idempotent"] = _worst(peak(e_ef - ef) / scale_f)

    # E(f) is blockwise constant; E fixes blockwise-constant functions.
    res["range"] = _worst(
        peak(ef - ef[:, partition.first_points][:, blocks]) / scale_f,
        peak(e_g_meas - g_meas) / reference_scale(peak(g_meas)),
    )

    # E(f g) = E(f) g for blockwise-constant g.
    res["module"] = _worst(
        peak(e_f_g_meas - ef * g_meas) / reference_scale(peak(f) * peak(g_meas))
    )

    # |E(f)|^p <= E(|f|^p) pointwise; E(|f|^p) serves Hoelder too.
    res["jensen"] = _worst(*(
        (np.abs(ef) ** p - e_abs_f[p]).max(axis=1) / reference_scale(e_abs_f[p].max(axis=1))
        for p in (1, 2, 4)
    ))

    # f >= 0 implies E(f) >= 0; f > 0 implies E(f) > 0.
    res["positive"] = _worst(-e_abs_f[1].min(axis=1) / reference_scale(abs_f.max(axis=1)))
    if np.any(e_positive.min(axis=1) <= 0.0):
        res["positive"] = max(res["positive"], 1.0)

    # |E(f g)| <= E(|f|^p)^(1/p) E(|g|^q)^(1/q) pointwise.
    left = np.abs(e_fg)
    right = [e_abs_f[p] ** (1 / p) * e_abs_g ** (1 / q)
             for p, q, e_abs_g in ((2, 2.0, e_abs_g2), (4, 4.0 / 3.0, e_abs_g43))]
    res["hoelder"] = _worst(*((left - r).max(axis=1) / reference_scale(r.max(axis=1))
                              for r in right))

    # Support growth: for f >= 0 with exact zeros, S(f) is contained in
    # S(E(f)); exact set semantics, threshold 0.
    res["support"] = float(np.any((f_sparse > 0.0) & (ef_sparse == 0.0)))

    # <E f, g> = <f, E g> in the weighted inner product.
    a = np.sum(ef * np.conj(g) * w, axis=1)
    b = np.sum(f * np.conj(eg) * w, axis=1)
    # Two-sided: |b| joins the scale of |a|.
    res["selfadjoint"] = _worst(np.abs(a - b) / (reference_scale(np.abs(a)) + np.abs(b)))

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
    residual = abs(nf - t_norm) / reference_scale(t_norm)
    return [ctx.record("norm_formula", residual, ctx.tol)]


def check_vanishing(ctx: CheckContext) -> list[CheckRecord]:
    inst = ctx.instance
    rng = ctx.rng("vanishing")
    t_norm = ctx.svd.norm
    blocks = inst.partition.block_of
    in_kept = inst.kept[inst.partition.first_points]
    block_kept = np.flatnonzero(in_kept)

    # g supported off the kept blocks leaves M_g T below the rank cut.
    g_blocks = np.zeros(in_kept.size, dtype=complex)
    g_blocks[~in_kept] = _draw_values(rng, int((~in_kept).sum()), 0.5, 2.0)
    g1 = g_blocks[blocks]
    # g alive on a kept block keeps M_g T above the cut.
    gs = [g1]
    if block_kept.size:
        pick = block_kept[int(rng.integers(0, block_kept.size))]
        g_pick = rng.uniform(0.5, 2.0)
        gs.append(np.where(blocks == pick, g_pick, 0.0))
    # The rows of M_g T where g = 0 are zero and carry no singular value.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [float(spectral_norms((g[:, None] * ctx.t)[g != 0.0])) for g in gs]

    res1 = norms[0] / (reference_scale(t_norm)
                       * reference_scale(float(np.abs(g1).max(initial=0.0))))
    records = [ctx.record("vanishing_disjoint", res1, RANK_TOL)]
    if block_kept.size:
        # ||M_g T|| / (max|g| ||T||) is sigma_B / sigma_max on the picked
        # block: the rank cut seen from the kept side. Near the float limit
        # M_g T and both norms can overflow though T does not, and inf / inf
        # reads nothing.
        with np.errstate(invalid="ignore"):
            meets = norms[1] / (g_pick * t_norm)
        if math.isfinite(meets):
            records.append(ctx.record("vanishing_meets", meets, RANK_TOL, bound="lower"))
        else:
            records.append(ctx.breakdown(
                "vanishing_meets",
                "||M_g T|| / (max|g| ||T||) is not finite: the norms overflow"))
    else:
        records.append(ctx.skip("vanishing_meets",
                                "the product E(|w|^2) E(|u|^2) vanishes identically"))
    return records


def check_partial_isometry(ctx: CheckContext) -> list[CheckRecord]:
    # The oracle side first: T T* T - T = L (Sigma^3 - Sigma) R*, read off
    # T's singular values before the rank cut, so a faint block counts as in
    # the criterion. Only a sigma^2 beyond the float range breaks it down.
    sigma, scale = ctx.svd.sigma, max(1.0, ctx.svd.norm)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(require_finite(sigma / scale * np.abs(sigma * sigma - 1.0)).max())
    is_pi = partial_isometry_criterion(ctx.instance, ctx.tol)
    # Equivalence: when the criterion says partial isometry the oracle
    # residual must vanish, otherwise it must not.
    return [ctx.record("partial_isometry", residual, ctx.tol,
                       bound="upper" if is_pi else "lower")]


def check_func_calc(ctx: CheckContext) -> list[CheckRecord]:
    fns = tuple(f for _, f in calculus_test_functions())
    svd = ctx.svd
    # T* T and T T* share their spectrum, so one table of function values,
    # at 0 and at the kept sigma_k^2, serves both. Their eigenbases are
    # orthonormal, so max |f| over the spectrum is the norm of each oracle
    # calculus; the spectrum holds 0 only when T has a kernel.
    values = svd.squares().tolist()
    f0 = np.asarray([complex(f(0.0)) for f in fns])
    fvals = np.asarray([[f(v) for v in values] for f in fns], dtype=complex)
    spectrum = fvals if svd.keep.all() else np.column_stack((fvals, f0))
    scale = reference_scale(np.abs(spectrum).max(axis=1))
    # Closed minus oracle is (f0_c - f0_o) I + W diag(c, -g) W* on the
    # frame of each product, the context's W_g = [v, R_k] and W_c = [l,
    # L_k]: each residual's norm is read off W's held R factor, never as an
    # n x n matrix.
    f0_c, c = closed_func_calc(ctx.polar_closed[2], fns)
    f0_o, _, g = svd.calc_frames(fvals, f0)
    coef = np.concatenate((c, -g), axis=1)
    cores = coef[:, :, None] * np.eye(coef.shape[1])
    norms = frame_norms(ctx.frame_factors, ctx.instance.space.n, f0_c - f0_o, cores)
    worst = (norms / scale).max(axis=1)
    return [ctx.record(name, res, 10 * ctx.tol) for name, res in zip(RECORDS["func_calc"], worst)]


def check_polar(ctx: CheckContext) -> list[CheckRecord]:
    svd = ctx.svd
    v, l, sigma = ctx.polar_closed
    s_g, s_c = ctx.frame_factors
    t_norm, k = svd.norm, int(svd.keep.sum())
    closed, oracle = np.ones(sigma.size), np.ones(k)
    # On W_g = Z_g S_g and W_c = Z_c S_c, closed |T| minus the oracle's
    # R_k diag(sigma_k) R_k* is Z_g S_g diag(sigma_B, -sigma_k) S_g* Z_g*,
    # closed U minus L_k R_k* is Z_c S_c diag(1, -1) S_g* Z_g*, closed U is
    # Z_c S_c diag(1, 0) S_g* Z_g*, and P_v - R_k R_k* (the two kernels'
    # complements) is Z_g S_g diag(1, -1) S_g* Z_g*: one q x q matrix each.
    small = np.stack([(left * np.concatenate(d)) @ s_g.conj().T for left, d in (
        (s_g, (sigma, -svd.sigma[svd.keep])), (s_c, (closed, -oracle)),
        (s_c, (closed, 0.0 * oracle)), (s_g, (closed, -oracle)))])
    abs_s, iso_s, u_s, kernel_s = singular_values(require_finite(small))
    # U* U = R S^2 R* on closed U's SVD L S R*: (U* U)^2 - U* U is read off S.
    proj_res = float(np.abs(u_s ** 4 - u_s ** 2).max(initial=0.0))
    # Closed U and |T| share v, so ker U = ker |T| by construction; their
    # kernel and ker T have the same dimension only when closed U, closed
    # |T| and T have one rank. Then ||K_T - K_|T||| = ||P_v - R_k R_k*|| is
    # the sine of the largest principal angle (Bjorck and Golub 1973),
    # read against the norm of T's kernel projection: 1, or 0 with none.
    u_rank = int((u_s > RANK_TOL * u_s.max(initial=0.0)).sum())
    gap = kernel_s.max(initial=0.0) if u_rank == sigma.size == k else 1.0
    kernel_res = gap / reference_scale((~svd.keep).any())
    # U |T| = sum_B sigma_B l_B v_B* against T itself, whose sub-cut tail is
    # part of the reference.
    with np.errstate(over="ignore", invalid="ignore"):
        fact = require_finite((l * sigma) @ v.conj().T)
    fact_res = op_deviations(fact[None], ctx.t[None], np.array([t_norm]))[0]
    return [
        ctx.record("polar_abs", abs_s.max(initial=0.0) / reference_scale(t_norm), ctx.tol),
        ctx.record("polar_isometry",
                   iso_s.max(initial=0.0) / reference_scale(float(t_norm > 0.0)), ctx.tol),
        ctx.record("polar_factorization", fact_res, ctx.tol),
        ctx.record("polar_projection", proj_res, ctx.tol),
        ctx.record("polar_kernels", kernel_res, 10 * ctx.tol),
    ]


def check_aluthge(ctx: CheckContext) -> list[CheckRecord]:
    svd = ctx.svd
    v, l, sigma = ctx.polar_closed
    s_g = ctx.frame_factors[0]
    s_v, s_r = s_g[:, :sigma.size], s_g[:, sigma.size:]
    # The closed transform |T|^(1/2) U |T|^(1/2) is v diag(sigma_B E(u_hat
    # w_hat)_B) v*, E(u_hat w_hat)_B = v_B* l_B on the unit frames, so no
    # coefficient multiplies E's matrix; the oracle root U root is R_k C R_k*
    # with the core C = S (R_k* L_k) S, S = Sigma_k^(1/2). Their difference
    # is W_g diag(sigma_B E(u_hat w_hat)_B, -C) W_g* on W_g = Z_g S_g. The
    # oracle rounds in proportion to ||T||, and is 0 for a nilpotent T, so
    # the residual is read on ||T||'s scale.
    r_k, l_k = svd.vectors
    s = np.sqrt(svd.sigma[svd.keep])
    core = s[:, None] * (r_k.conj().T @ l_k) * s
    coef = sigma * np.einsum("ik,ik->k", v.conj(), l)
    # The closed half-power factor is V diag(sqrt(sigma_B)) V*, so its square
    # less the closed |T| is V (D V* V D - D^2) V*, D = diag(sqrt(sigma_B)),
    # V = Z_g S_g[:, :K] (W_g's leading K columns), read against || |T| ||.
    half = np.sqrt(sigma)
    c = half[:, None] * (v.conj().T @ v) * half - np.diag(sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.stack(((s_v * coef) @ s_v.conj().T - s_r @ core @ s_r.conj().T,
                          s_v @ c @ s_v.conj().T))
    closed_norm, root_norm = spectral_norms(require_finite(small))
    scale = reference_scale(svd.norm)
    return [
        ctx.record("aluthge_closed", closed_norm / scale, ctx.tol),
        ctx.record("aluthge_root", root_norm / scale, ctx.tol),
    ]


# ---------------------------------------------------------------------------
# Spectral checks


def _eigvals_match_residual(expected: Sequence[complex],
                            computed: Sequence[complex]) -> float:
    """Set distance from expected to the computed numerical eigenvalues,
    on the reference_scale of the largest of them. A distance or modulus
    beyond the float range raises ValueError."""
    e = np.asarray(expected, dtype=complex)
    c = np.asarray(computed, dtype=complex)
    with np.errstate(over="ignore"):
        dist, size = np.abs(e[:, None] - c), np.abs(c).max()
    gap = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    if not np.isfinite(gap) or not np.isfinite(size):
        raise ValueError("an eigenvalue distance of E M_u is not finite")
    return float(gap / reference_scale(size))


def check_normality(ctx: CheckContext) -> list[CheckRecord]:
    m = ctx.avg_mult.matrix
    m_adj = m.conj().T
    # Entries that overflow fail the build of the products; numpy's
    # overflow warning would only repeat that error. So does a scale of
    # ||E M_u||^2 beyond the float range: no residual can be read against it.
    with np.errstate(over="ignore", invalid="ignore"):
        commutator = require_finite(m @ m_adj - m_adj @ m)
        # The closed norm is 0 exactly when u is blockwise constant.
        closed = float(np.prod(ctx.avg_mult.spread, axis=0).max())
        comm_norm, m_norm = spectral_norms(np.stack((commutator, m)))
        scale = reference_scale(m_norm ** 2)
    if not np.isfinite(scale):
        raise ValueError("1 + ||E M_u||^2 is not finite")
    return [ctx.record("normality", abs(closed - comm_norm) / scale, ctx.tol)]


def check_spectrum(ctx: CheckContext) -> list[CheckRecord]:
    # The groups are built first, so a block mean beyond the float range is
    # the reason a breakdown names. LAPACK returns NaN, without an error,
    # for a matrix whose norm leaves the float range; such eigenvalues
    # raise ValueError.
    expected = ctx.avg_mult.eigenvalues
    eigvals = np.linalg.eigvals(ctx.avg_mult.matrix)
    if not np.isfinite(eigvals).all():
        raise ValueError("eigenvalues of E M_u are not finite")
    return [ctx.record("spectrum", _eigvals_match_residual(expected, eigvals), ctx.tol)]


def check_spectral_decomp(ctx: CheckContext) -> list[CheckRecord]:
    p = ctx.avg_mult.projections()
    if p is None:
        return [ctx.skip(name, "u is not blockwise constant, E M_u is not normal")
                for name in RECORDS["spectral_decomp"]]
    m = ctx.avg_mult.matrix

    # ||P|| is taken once and is the reference norm of both projection
    # identities.
    p_norms = spectral_norms(p)
    proj_res = max(
        op_deviations(p @ p, p, p_norms).max(),
        (spectral_norms(p - p.conj().transpose(0, 2, 1)) / reference_scale(p_norms)).max(),
    )
    # One stack P_i P_j (j > i) per i; a stack of all pairs at once would
    # hold m^2 / 2 matrices.
    orth_res = max((spectral_norms(p[i] @ p[i + 1:]).max()
                    for i in range(len(p) - 1)), default=0.0)
    traces = np.trace(p, axis1=1, axis2=2).real
    total_rank = int(np.rint(traces).sum())
    eigenvalues = np.array(ctx.avg_mult.eigenvalues)
    recon = np.einsum("k,kij->ij", eigenvalues, p)
    recon_res = op_deviations(recon[None], m[None], spectral_norms(m[None]))[0]
    # M acts on range P_k as lambda_k, so tr(P_k M) / tr(P_k) is lambda_k
    # read off the dense M, on the reference scale of the largest |lambda|.
    # The real P_k meet M's parts apart: einsum casts mixed dtypes in buffers.
    real, imag = (np.einsum("kij,ji->k", p, part) for part in (m.real, m.imag))
    rayleigh = (real + 1j * imag) / traces
    eigs_res = np.abs(rayleigh - eigenvalues).max() / reference_scale(np.abs(eigenvalues).max())
    return [
        ctx.record("sd_projections", proj_res, ctx.tol),
        ctx.record("sd_orthogonality", orth_res, ctx.tol),
        ctx.record("sd_reconstruction", recon_res, ctx.tol),
        ctx.record("sd_rank_sum", float(abs(total_rank - ctx.instance.space.n)), 0.5),
        ctx.record("sd_eigs_match", eigs_res, ctx.tol),
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
    # Three seeded symbols, constant on the fibers by construction: one
    # value per fiber.
    fibers = phi.partition
    symbols = _draw_values(rng, (3, fibers.block_count), 0.0, 4.0)[:, fibers.block_of]
    # f -> E_phi(u f), one matrix per symbol.
    direct = Sandwich(fibers, np.ones(phi.space.n), symbols).matrices()
    worst = op_deviations(phi.reconstruct(symbols), direct, spectral_norms(direct)).max()
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
