"""Normality, spectrum, and spectral decomposition of averaged
multiplication operators, plus projection-valued measures induced by
point maps.

The operator studied here sends f to E(u f): multiplication by a symbol
u followed by block averaging. It is normal exactly when u is blockwise
constant, its spectrum is the set of block means of u, with 0 unless the
operator is invertible (every point its own block, no block mean within
tol of 0), and in the normal case it diagonalizes over projections of the form
"indicator of a level set of u, then average". AvgMult holds the operator
and the closed data these are read off, each built once.

A point map phi on the space (PointMap) induces the fiber partition
(preimages of single points), the pushforward density, and the
projection-valued set function S -> E_phi M_{indicator of preimage(S)},
where E_phi averages over fibers. The axioms of a spectral measure are checked both on the
ambient space and compressed to the subspace of fiber-measurable
functions, because the identity axiom can only hold on the latter when
phi is not injective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .condexp import Sandwich
from .measure import FiniteMeasureSpace, MeasurableFunction, Partition, divide_parts
from .opalgebra import reference_scale, spectral_norms

# Random sets, and additivity rounds, in check_spectral_axioms' family.
AXIOM_RANDOM_SETS = 12


@dataclass(frozen=True, eq=False)
class PointMap:
    """Self-map of the point set: point i goes to point images[i].

    Every point has positive mass, so the pushforward measure is
    automatically absolutely continuous; no nonsingularity check is
    needed.

    It induces the projection-valued set function S -> E_phi
    M_{chi_preimage(S)} on sets of target points, E_phi the fiber average,
    which values() evaluates on a stack of sets at once.
    """

    space: FiniteMeasureSpace
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        imgs = tuple(int(i) for i in self.images)
        n = self.space.n
        if len(imgs) != n or any(i < 0 or i >= n for i in imgs):
            raise ValueError(f"images must be {n} indices in 0..{n - 1}")
        object.__setattr__(self, "images", imgs)

    @cached_property
    def fibers(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(target point, preimage indices) for each nonempty fiber,
        ordered by target point."""
        buckets: dict[int, list[int]] = {}
        for i, s in enumerate(self.images):
            buckets.setdefault(s, []).append(i)
        return tuple((s, tuple(buckets[s])) for s in sorted(buckets))

    @cached_property
    def partition(self) -> Partition:
        """The fiber partition, the nonempty fibers as blocks in target
        order; its cached matrix is the fiber average E_phi."""
        return Partition(self.space, [fiber for _, fiber in self.fibers])

    @cached_property
    def image_index(self) -> np.ndarray:
        """images as an index array: sets[:, image_index] gathers sets of
        target points onto the points mapped into them."""
        return np.asarray(self.images, dtype=np.intp)

    def values(self, sets: np.ndarray) -> np.ndarray:
        """Stacked real matrices of measure(S), one per row of a (k, n)
        boolean array of target-point sets: E_phi with the columns of the
        points mapped into S kept, so the singleton values have disjoint
        column supports and sum to E_phi."""
        return self.partition.cond_exp_matrix[None] * sets[:, self.image_index][:, None, :]

    def reconstruct(self, symbols: np.ndarray) -> np.ndarray:
        """Stacked matrices of sum_s v(s) measure({s}), one per row of a
        (k, n) array of fiber-measurable symbols u, where v o phi = u (v is
        zero on points with empty fiber); each must equal the matrix of
        f -> E_phi(u f)."""
        targets = np.array([s for s, _ in self.fibers])
        coeffs = symbols[:, self.partition.first_points]
        singletons = self.values(targets[:, None] == np.arange(self.space.n)[None, :])
        # einsum without optimize sums in its own loop; a BLAS contraction of
        # the flattened stack would wake the BLAS worker threads.
        return np.einsum("ks,sij->kij", coeffs, singletons)


@dataclass(frozen=True, eq=False)
class AvgMult:
    """E M_u, the operator f -> E(u f), with its matrix, the block spread
    of u, the eigenvalue groups of its block means at tol and its
    eigenvalues cached on first use.

    Each is built once, whichever of has_kernel, eigenvalues and
    projections() reads it first; projections() reads the spread, and
    the groups only once the spread has passed, so a symbol whose block
    mean is not finite but that is plainly not blockwise constant is never
    grouped.
    """

    u: MeasurableFunction
    partition: Partition
    tol: float

    @cached_property
    def matrix(self) -> np.ndarray:
        """The matrix of f -> E(u f), the sandwich M_1 E M_u."""
        return Sandwich(self.partition, np.ones(self.partition.space.n),
                        self.u.values).matrices()

    @cached_property
    def spread(self) -> np.ndarray:
        """Per block, sqrt(E|u - E u|^2) and sqrt(E|u|^2), as the two rows
        of a (2, block count) array.

        On block B, E M_u is the rank-one q_B b_B* with |q_B| = 1 and
        b_B = conj(u) q_B, so the second row is ||E M_u|| on B, the first is
        ||E M_u - E M_{E u}|| on B, and their product is the norm of the
        commutator [E M_u, (E M_u)*] on B: it is 0 exactly when u is
        constant on B. The second row is Partition.block_rms; the first is
        taken on u over its block's RMS, which has RMS 1, and scaled back,
        so no square or block integral overflows. An RMS beyond the float
        range leaves no spread to measure, so it raises ValueError.
        """
        p = self.partition
        rms = p.block_rms(self.u.values)
        if not np.isfinite(rms).all():
            raise ValueError("E(|u|^2) is not finite")
        v = divide_parts(self.u.values, np.where(rms > 0.0, rms, 1.0)[p.block_of])
        step = v - p.block_means(v)[p.block_of]
        return np.stack((rms * np.sqrt(p.block_means(np.abs(step) ** 2)), rms))

    @cached_property
    def groups(self) -> tuple[list[complex], np.ndarray]:
        """The block means of u grouped into the distinct eigenvalues.

        Block means are taken in block order; a mean joins the first
        representative (0, then earlier block means) within tol *
        reference_scale(max |block mean|), else it becomes a new one.
        Returns the representatives, 0 first and the rest sorted by value,
        and the group index of every block. A block mean that is not finite
        (a block integral beyond the float range) would join no group, so it
        raises ValueError.
        """
        means = self.partition.block_means(self.u.values)
        if not np.all(np.isfinite(means)):
            raise ValueError("a block mean of u is not finite")
        radius = self.tol * reference_scale(float(np.abs(means).max(initial=0.0)))
        reps = [0j]
        group = np.where(np.abs(means) <= radius, 0, -1)
        while (free := np.flatnonzero(group < 0)).size:
            rep = means[free[0]]
            # Means of opposite sign near the float limit overflow the
            # distance to inf, which joins no group.
            with np.errstate(over="ignore"):
                group[free[np.abs(means[free] - rep) <= radius]] = len(reps)
            reps.append(complex(rep))
        order = [0, *sorted(range(1, len(reps)), key=lambda g: (reps[g].real, reps[g].imag))]
        rank = np.empty(len(reps), dtype=int)
        rank[order] = np.arange(len(reps))
        return [reps[g] for g in order], rank[group]

    @property
    def has_kernel(self) -> bool:
        """Whether 0 is an eigenvalue: it is, unless every point is its own
        block and no block mean falls in the zero group. The one rule for
        the eigenvalue 0 of the spectrum and of the decomposition."""
        return np.count_nonzero(self.groups[1]) < self.partition.space.n

    @cached_property
    def eigenvalues(self) -> tuple[complex, ...]:
        """The spectrum: the nonzero representatives, sorted by value as
        groups holds them, then 0 when has_kernel; the order of
        projections() too."""
        reps, _ = self.groups
        return (*reps[1:], 0j) if self.has_kernel else tuple(reps[1:])

    def projections(self) -> np.ndarray | None:
        """The spectral projections of the normal operator, one real
        (m, n, n) stack in the order of eigenvalues, or None when u is not
        blockwise constant at tol.

        For each distinct nonzero value lambda of u the projection is
        "restrict to the blocks where u = lambda, then average",
        E M_{chi_lambda}; the kernel projection (eigenvalue 0) is the
        complement of all of them and is included only when has_kernel.

        On block B the decomposition misses E M_u by sqrt(E|u - E u|^2 +
        |E u - lambda_B|^2), lambda_B its eigenvalue; u counts as blockwise
        constant when the largest of these is within tol on the
        reference_scale of ||E M_u||, as the reconstruction is compared.
        """
        p = self.partition
        step, rms = self.spread
        limit = self.tol * reference_scale(rms.max())
        # The spread alone bounds the miss from below.
        if step.max() > limit:
            return None
        reps, group = self.groups
        offset = np.abs(p.block_means(self.u.values) - np.array(reps)[group])
        if np.hypot(step, offset).max() > limit:
            return None
        # The level sets are disjoint, so the sum of the stack is exact.
        levels = group[p.block_of][None, :] == np.arange(1, len(reps))[:, None]
        stack = Sandwich(p, np.ones(p.space.n), levels).matrices()
        if not self.has_kernel:
            return stack
        return np.concatenate((stack, np.eye(p.space.n)[None] - stack.sum(axis=0)))


def pushforward_density(phi: PointMap) -> MeasurableFunction:
    """Density of the pushforward measure: h(x) = mu(preimage of x) / mu(x)."""
    w = phi.space.weights
    h = np.bincount(phi.images, w, phi.space.n)
    return MeasurableFunction(phi.space, h / w)


def _fiber_basis(fp: Partition) -> np.ndarray:
    """Orthonormal basis of the fiber-measurable functions, as columns: the
    normalized indicators of the fiber partition's blocks, sqrt(mu) chi_B /
    sqrt(mu(B)) in the orthonormal-basis frame."""
    indicators = fp.block_of[:, None] == np.arange(fp.block_count)[None, :]
    return indicators * fp.space.sqrt_weights[:, None] / np.sqrt(fp.block_masses)[None, :]


def _axiom_sets(
    rng: np.random.Generator, n: int, n_random: int
) -> tuple[np.ndarray, np.ndarray]:
    """The set family and the intersection pairs of check_spectral_axioms.

    Returns a (n + n_random, n) boolean array, one row per set of target
    points: the n singletons, then n_random random sets, each point kept
    below a threshold of its own set drawn from uniform(0.2, 0.8). Then
    max(n_random, 4) index pairs into that family, drawn as one
    rng.integers call.
    """
    sets = np.vstack([np.eye(n, dtype=bool),
                      rng.random((n_random, n)) < rng.uniform(0.2, 0.8, (n_random, 1))])
    pairs = rng.integers(0, len(sets), size=(max(n_random, 4), 2))
    return sets, pairs


def _frame_measure(
    phi: PointMap, on_subspace: bool
) -> Callable[[np.ndarray], np.ndarray]:
    """The set function S -> measure(S) of one frame, on a (k, n) boolean
    array of target-point sets.

    measure(S) = E_phi M_{chi_preimage(S)} only masks the columns of E_phi:
    on the ambient space that is the point map's own values, and on the
    fiber subspace the compression of the rows to the orthonormal fiber
    basis is applied to E_phi once, before the column masks of a whole
    stack of sets.
    """
    if not on_subspace:
        return phi.values
    basis = _fiber_basis(phi.partition)
    rows = basis.T @ phi.partition.cond_exp_matrix
    images = phi.image_index

    def measure(sets: np.ndarray) -> np.ndarray:
        return (rows[None] * sets[:, images][:, None, :]) @ basis

    return measure


def check_spectral_axioms(phi: PointMap, seed: int = 0) -> dict[str, float]:
    """Evaluate the spectral-measure axioms over all singletons and a
    seeded family of random subsets, on the ambient space and on the
    fiber subspace; returns the worst residual of each axiom and frame,
    keyed by its record name (sm_<axiom>_ambient, then sm_<axiom>_subspace).

    (a) every value is an orthogonal projection, (b) the empty set maps
    to 0 and, on the fiber subspace, the whole set to the identity (on the
    ambient space measure(X) = E_phi, which is not the identity when phi
    is not injective), (c) intersections map to products, (d) disjoint
    unions map to sums. Residuals are spectral norms on the selected
    space, taken over stacks of the dense measure values of the whole set
    family at once; a frame writes all of its residual matrices into one
    stack and takes one spectral_norms call of it.

    The family is drawn once and both frames are checked on it. The draws
    from the seeded generator come in a fixed order: the random sets and
    the intersection pairs (see _axiom_sets), then, for the
    AXIOM_RANDOM_SETS additivity rounds at once, the index of each round's
    whole set, each round's number of pieces, and the piece of every point
    in every round, as three rng.integers calls.
    """
    n = phi.space.n
    rng = np.random.default_rng(seed)
    sets, pairs = _axiom_sets(rng, n, AXIOM_RANDOM_SETS)
    k = len(sets)
    # The family is followed by the empty set (row k) and the whole set
    # (row k + 1), which the identity and intersection axioms use.
    family = np.vstack([sets, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
    i, j = np.vstack([pairs, [[0, k + 1], [0, k]]]).T
    meets = family[i] & family[j]

    wholes = rng.integers(0, k, size=AXIOM_RANDOM_SETS)
    counts = rng.integers(2, 5, size=AXIOM_RANDOM_SETS)
    assignment = rng.integers(0, counts[:, None], size=(AXIOM_RANDOM_SETS, n))
    # Every round's pieces come from one gather and go into one measure
    # call: round r owns the rows starts[r]:starts[r] + counts[r] of the
    # piece stack, and row starts[r] + p is the piece p of its whole set.
    round_of = np.repeat(np.arange(AXIOM_RANDOM_SETS), counts)
    starts = np.cumsum(counts) - counts
    piece = np.arange(len(round_of)) - starts[round_of]
    pieces = sets[wholes[round_of]] & (assignment[round_of] == piece[:, None])

    # One frame's stacks are freed before the next frame's are built: each
    # extra stack raises the peak memory. For the same reason the residuals
    # are written in place (out=) into the frame's one stack, never
    # concatenated: the projection identities (k squares, k adjoints), the
    # intersections, the additive sums, the empty set and, on the fiber
    # subspace, the whole set.
    def frame_residuals(on_subspace: bool) -> dict[str, float]:
        measure = _frame_measure(phi, on_subspace)
        values = measure(family)
        v = values[:k]
        dim = values.shape[-1]
        a, b, c = 2 * k, 2 * k + len(i), 2 * k + len(i) + AXIOM_RANDOM_SETS
        stack = np.empty((c + 1 + on_subspace, dim, dim), dtype=values.dtype)
        proj, inter, sums, edge = stack[:a], stack[a:b], stack[b:c], stack[c:]
        np.matmul(v, v, out=proj[:k])
        proj[:k] -= v
        np.subtract(v.conj().transpose(0, 2, 1), v, out=proj[k:])
        np.matmul(values[i], values[j], out=inter)
        np.subtract(measure(meets), inter, out=inter)
        np.add.reduceat(measure(pieces), starts, axis=0, out=sums)
        sums -= values[wholes]
        edge[0] = values[k]
        if on_subspace:
            np.subtract(values[k + 1], np.eye(dim), out=edge[1])
        norms = spectral_norms(stack)
        frame = "subspace" if on_subspace else "ambient"
        res = {f"sm_proj_{frame}": norms[:a].max(), f"sm_empty_{frame}": norms[c]}
        if on_subspace:
            res["sm_full_subspace"] = norms[c + 1]
        res[f"sm_intersect_{frame}"] = norms[a:b].max()
        res[f"sm_additive_{frame}"] = norms[b:c].max()
        return {name: float(x) for name, x in res.items()}

    return {**frame_residuals(False), **frame_residuals(True)}
