"""Dense linear-algebra oracles on a weighted L2 space.

Operators act on vectors of point values; adjoints, norms, and every
decomposition here are taken with respect to the weighted inner product
<f, g> = sum_i f_i conj(g_i) mu_i. All computations conjugate by the
diagonal similarity D^(1/2) . D^(-1/2), with D = diag(mu), so that the
standard Euclidean Hermitian eigensolver and SVD apply, and map the
result back. In the conjugated frame the weighted inner product is the
Euclidean one, so orthonormality statements are exact there.

These routines are the independent side of every closed-form check in
the rest of the package: they only ever see a dense matrix and know
nothing about conditional-expectation structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveError, NotSelfAdjointError, SpaceMismatchError
from .measure import FiniteMeasureSpace

# Relative singular-value cutoff deciding numerical kernels.
RANK_TOL = 1e-9
# Eigenvalues of a positive operator within this relative distance of zero
# are treated as exact kernel before taking roots.
CLAMP_TOL = 1e-10
# Allowed relative asymmetry before an operator is rejected as not
# self-adjoint.
SELF_ADJOINT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class WeightedOperator:
    """Square complex matrix acting on point-value vectors over a space."""

    space: FiniteMeasureSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        n = self.space.n
        if m.shape != (n, n):
            raise SpaceMismatchError(f"matrix shape {m.shape} does not match n={n}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def _check_space(self, other: "WeightedOperator") -> None:
        if self.space != other.space:
            raise SpaceMismatchError("operators live on different spaces")

    def __matmul__(self, other: "WeightedOperator") -> "WeightedOperator":
        self._check_space(other)
        return WeightedOperator(self.space, self.matrix @ other.matrix)

    def __sub__(self, other: "WeightedOperator") -> "WeightedOperator":
        self._check_space(other)
        return WeightedOperator(self.space, self.matrix - other.matrix)


def to_euclidean(a: WeightedOperator) -> np.ndarray:
    """Conjugated matrix D^(1/2) A D^(-1/2); Euclidean-frame representative."""
    s = a.space.sqrt_weights
    return a.matrix * s[:, None] / s[None, :]


def from_euclidean(space: FiniteMeasureSpace, m: np.ndarray) -> WeightedOperator:
    s = space.sqrt_weights
    return WeightedOperator(space, m / s[:, None] * s[None, :])


def weighted_adjoint(a: WeightedOperator) -> WeightedOperator:
    """Adjoint in the weighted inner product: D^(-1) A^H D."""
    w = a.space.weights
    return WeightedOperator(a.space, a.matrix.conj().T * (w[None, :] / w[:, None]))


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Euclidean spectral norms of a (..., m, n) stack of matrices; the one
    spectral-norm path of the package.

    An all-zero slice has norm exactly 0.0 and reaches no SVD. The other
    slices go through one batched np.linalg.svd(., compute_uv=False), and
    their largest singular value is bit for bit the value of
    np.linalg.norm(stack, 2, axis=(-2, -1)). A stack without zero slices
    is not copied.
    """
    nonzero = stack.any(axis=(-2, -1))
    if nonzero.all():
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    norms = np.zeros(nonzero.shape)
    if nonzero.any():
        norms[nonzero] = np.linalg.svd(stack[nonzero], compute_uv=False)[:, 0]
    return norms


def operator_norm(a: WeightedOperator) -> float:
    """Largest singular value with respect to the weighted inner product."""
    return float(spectral_norms(to_euclidean(a)))


def operator_norms(space: FiniteMeasureSpace, stack: np.ndarray) -> np.ndarray:
    """Weighted operator norms of a (k, n, n) stack of operator matrices,
    one batched spectral norm. The stack is taken to the Euclidean frame
    in place, so pass a fresh array."""
    s = space.sqrt_weights
    stack *= s[:, None]
    stack /= s[None, :]
    return spectral_norms(stack)


def op_deviations(space: FiniteMeasureSpace, a: np.ndarray, b: np.ndarray,
                  b_norms: np.ndarray | None = None) -> np.ndarray:
    """Slice-wise relative distance ||a_k - b_k|| / (1 + ||b_k||) of two
    (k, n, n) stacks of operator matrices, weighted norms, with b the
    reference side. Real stacks stay real, so their norms take real SVDs.

    A caller that already holds the norms of b (read off an oracle's
    eigenvalues or singular values) passes them as b_norms; otherwise they
    are taken with one more batched spectral norm. The value is never
    below the symmetric ||a - b|| / (1 + max(||a||, ||b||)), since
    ||a|| <= ||b|| + ||a - b||.
    """
    diff = operator_norms(space, np.subtract(a, b, dtype=np.result_type(a, b, float)))
    if b_norms is None:
        b_norms = operator_norms(space, np.array(b, dtype=np.result_type(b, float)))
    return diff / (1.0 + b_norms)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Real spectrum and eigenbasis of a self-adjoint operator.

    values are ascending; basis holds the eigenvectors as columns in the
    Euclidean frame, where they are orthonormal. Every function of the
    operator is built from this one factorization by calc_stack.
    """

    space: FiniteMeasureSpace
    values: np.ndarray
    basis: np.ndarray

    @property
    def scale(self) -> float:
        """Largest eigenvalue magnitude, the operator norm."""
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def calc_stack(self, fvals: np.ndarray) -> np.ndarray:
        """Matrices of sum_k f(lambda_k) v_k <v_k, .>, one per row of the
        (m, n) array of function values at the eigenvalues; shape (m, n, n)."""
        m = (self.basis * fvals[:, None, :]) @ self.basis.conj().T
        s = self.space.sqrt_weights
        m /= s[:, None]
        m *= s[None, :]
        return m

    def sqrt(self) -> WeightedOperator:
        """Positive square root; see positive_sqrt."""
        vals = self.values
        scale = self.scale
        if float(vals.min()) < -CLAMP_TOL * scale:
            raise NotPositiveError(
                f"minimum eigenvalue {vals.min():.3e} below -{CLAMP_TOL:.1e} * norm"
            )
        snapped = np.where(vals <= CLAMP_TOL * scale, 0.0, vals)
        return WeightedOperator(self.space, self.calc_stack(np.sqrt(snapped)[None])[0])


def hermitian_eig(a: WeightedOperator) -> EigenSystem:
    """Full spectrum and eigenbasis of a self-adjoint operator; the one
    eigendecomposition path of the oracles.

    Rejects operators whose weighted asymmetry exceeds SELF_ADJOINT_TOL
    times the norm of their self-adjoint part with NotSelfAdjointError; the
    accepted asymmetry is folded away by symmetrizing the conjugated matrix
    before factorization.
    """
    h = to_euclidean(a)
    hh = h.conj().T
    vals, vecs = np.linalg.eigh(0.5 * (h + hh))
    # The norm of the symmetrized matrix is its largest |eigenvalue|; it
    # differs from ||a|| by at most half the asymmetry.
    dev = float(spectral_norms(h - hh))
    if dev > SELF_ADJOINT_TOL * float(np.abs(vals).max(initial=0.0)):
        raise NotSelfAdjointError(
            f"asymmetry {dev:.3e} exceeds {SELF_ADJOINT_TOL:.1e} * norm"
        )
    return EigenSystem(a.space, vals, vecs)


def positive_sqrt(a: WeightedOperator) -> WeightedOperator:
    """Positive square root of a positive self-adjoint operator.

    Eigenvalues below -CLAMP_TOL * ||a|| raise NotPositiveError; values
    within CLAMP_TOL * ||a|| of zero are treated as exact kernel, so the
    root of a singular operator has a clean kernel instead of spurious
    sqrt(rounding) eigenvalues.
    """
    return hermitian_eig(a).sqrt()


def polar_oracle(a: WeightedOperator) -> tuple[WeightedOperator, WeightedOperator]:
    """Polar decomposition a = U P via SVD in the conjugated frame.

    P is the positive factor (A* A)^(1/2); U is the partial isometry that
    agrees with A P^+ on the orthogonal complement of ker P and vanishes
    on ker P, so ker U = ker P = ker A. Singular values at or below
    RANK_TOL * sigma_max count as kernel.
    """
    e = to_euclidean(a)
    left, sig, right_h = np.linalg.svd(e)
    smax = float(sig.max()) if sig.size else 0.0
    keep = sig > RANK_TOL * smax if smax > 0.0 else np.zeros_like(sig, dtype=bool)
    u_eu = left[:, keep] @ right_h[keep, :]
    p_eu = (right_h.conj().T * np.where(keep, sig, 0.0)[None, :]) @ right_h
    return from_euclidean(a.space, u_eu), from_euclidean(a.space, p_eu)


def kernel_projection(a: WeightedOperator) -> WeightedOperator:
    """Orthogonal projection onto the numerical kernel of a.

    The kernel is spanned by the right singular vectors whose singular
    values are at most RANK_TOL * sigma_max; the zero operator maps to
    the identity.
    """
    e = to_euclidean(a)
    _, sig, right_h = np.linalg.svd(e)
    smax = float(sig.max()) if sig.size else 0.0
    null = sig <= RANK_TOL * smax if smax > 0.0 else np.ones_like(sig, dtype=bool)
    v0 = right_h[null, :].conj().T
    return from_euclidean(a.space, v0 @ v0.conj().T)

