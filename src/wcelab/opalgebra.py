"""Dense linear-algebra oracles on the orthonormal-basis matrices of a
weighted L2 space.

Every operator matrix in the package is taken in the orthonormal basis
e_i / sqrt(mu_i) of the weighted space, where the weighted inner product
<f, g> = sum_i f_i conj(g_i) mu_i is the Euclidean one. So the adjoint of
an operator is the conjugate transpose of its matrix, its norm is the
plain spectral norm, and the standard Hermitian eigensolver and SVD apply
as they are; nothing here knows the point masses.

These routines are the independent side of every closed-form check in
the rest of the package: they only ever see a dense matrix and know
nothing about conditional-expectation structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveError, NotSelfAdjointError

# Relative singular-value cutoff deciding numerical kernels.
RANK_TOL = 1e-9
# Eigenvalues of a positive operator within this relative distance of zero
# are treated as exact kernel before taking roots.
CLAMP_TOL = 1e-10
# Allowed relative asymmetry before an operator is rejected as not
# self-adjoint.
SELF_ADJOINT_TOL = 1e-8


def require_finite(m: np.ndarray) -> np.ndarray:
    """m itself when every entry is finite; otherwise ValueError. A matrix
    whose entries overflowed is not an operator any oracle can certify."""
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    return m


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (..., m, n) stack of matrices; the one
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


def op_deviations(a: np.ndarray, b: np.ndarray,
                  b_norms: np.ndarray | None = None) -> np.ndarray:
    """Slice-wise relative distance ||a_k - b_k|| / (1 + ||b_k||) of two
    (k, n, n) stacks of operator matrices, with b the reference side. Real
    stacks stay real, so their norms take real SVDs.

    A caller that already holds the norms of b (read off an oracle's
    eigenvalues or singular values) passes them as b_norms; otherwise they
    are taken with one more batched spectral norm. The value is never
    below the symmetric ||a - b|| / (1 + max(||a||, ||b||)), since
    ||a|| <= ||b|| + ||a - b||.
    """
    diff = spectral_norms(a - b)
    if b_norms is None:
        b_norms = spectral_norms(b)
    return diff / (1.0 + b_norms)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Real spectrum and eigenbasis of a self-adjoint operator.

    values are ascending; basis holds the orthonormal eigenvectors as
    columns. Every function of the operator is built from this one
    factorization by calc_stack.
    """

    values: np.ndarray
    basis: np.ndarray

    @property
    def scale(self) -> float:
        """Largest eigenvalue magnitude, the operator norm."""
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def calc_stack(self, fvals: np.ndarray) -> np.ndarray:
        """Matrices of sum_k f(lambda_k) v_k <v_k, .>, one per row of the
        (m, n) array of function values at the eigenvalues; shape (m, n, n)."""
        return (self.basis * fvals[:, None, :]) @ self.basis.conj().T

    def sqrt(self) -> np.ndarray:
        """Positive square root; see positive_sqrt."""
        vals = self.values
        scale = self.scale
        if float(vals.min()) < -CLAMP_TOL * scale:
            raise NotPositiveError(
                f"minimum eigenvalue {vals.min():.3e} below -{CLAMP_TOL:.1e} * norm"
            )
        snapped = np.where(vals <= CLAMP_TOL * scale, 0.0, vals)
        return self.calc_stack(np.sqrt(snapped)[None])[0]


def hermitian_eig(a: np.ndarray) -> EigenSystem:
    """Full spectrum and eigenbasis of a self-adjoint operator; the one
    eigendecomposition path of the oracles.

    Rejects operators whose asymmetry exceeds SELF_ADJOINT_TOL times the
    norm of their self-adjoint part with NotSelfAdjointError; the accepted
    asymmetry is folded away by symmetrizing the matrix before
    factorization.
    """
    ah = a.conj().T
    vals, vecs = np.linalg.eigh(0.5 * (a + ah))
    # The norm of the symmetrized matrix is its largest |eigenvalue|; it
    # differs from ||a|| by at most half the asymmetry.
    dev = float(spectral_norms(a - ah))
    if dev > SELF_ADJOINT_TOL * float(np.abs(vals).max(initial=0.0)):
        raise NotSelfAdjointError(
            f"asymmetry {dev:.3e} exceeds {SELF_ADJOINT_TOL:.1e} * norm"
        )
    return EigenSystem(vals, vecs)


def positive_sqrt(a: np.ndarray) -> np.ndarray:
    """Positive square root of a positive self-adjoint operator.

    Eigenvalues below -CLAMP_TOL * ||a|| raise NotPositiveError; values
    within CLAMP_TOL * ||a|| of zero are treated as exact kernel, so the
    root of a singular operator has a clean kernel instead of spurious
    sqrt(rounding) eigenvalues.
    """
    return hermitian_eig(a).sqrt()


def polar_oracle(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition a = U P via SVD.

    P is the positive factor (A* A)^(1/2); U is the partial isometry that
    agrees with A P^+ on the orthogonal complement of ker P and vanishes
    on ker P, so ker U = ker P = ker A. Singular values at or below
    RANK_TOL * sigma_max count as kernel.
    """
    left, sig, right_h = np.linalg.svd(a)
    smax = float(sig.max()) if sig.size else 0.0
    keep = sig > RANK_TOL * smax if smax > 0.0 else np.zeros_like(sig, dtype=bool)
    u = left[:, keep] @ right_h[keep, :]
    p = (right_h.conj().T * np.where(keep, sig, 0.0)[None, :]) @ right_h
    return u, p


def kernel_projection(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the numerical kernel of a.

    The kernel is spanned by the right singular vectors whose singular
    values are at most RANK_TOL * sigma_max; the zero operator maps to
    the identity.
    """
    _, sig, right_h = np.linalg.svd(a)
    smax = float(sig.max()) if sig.size else 0.0
    null = sig <= RANK_TOL * smax if smax > 0.0 else np.ones_like(sig, dtype=bool)
    v0 = right_h[null, :].conj().T
    return v0 @ v0.conj().T
