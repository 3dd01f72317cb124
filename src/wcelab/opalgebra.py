"""Dense linear-algebra oracles on the orthonormal-basis matrices of a
weighted L2 space.

Every operator matrix in the package is taken in the orthonormal basis
e_i / sqrt(mu_i) of the weighted space, where the weighted inner product
<f, g> = sum_i f_i conj(g_i) mu_i is the Euclidean one. So the adjoint of
an operator is the conjugate transpose of its matrix, its norm is the
plain spectral norm, and the standard SVD applies as it is; nothing here
knows the point masses.

These routines are the independent side of every closed-form check in
the rest of the package: they only ever see a dense matrix and know
nothing about conditional-expectation structure.
"""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff: the one cut for every rank, support and
# separation decision about T, on the oracle side (SvdOracle) and on the
# closed-form side (WceInstance.kept) alike.
RANK_TOL = 1e-10


def reference_scale(size: float | np.ndarray) -> float | np.ndarray:
    """1 + size: the one scale every residual and every --tol decision is
    read against, for the size of its reference side."""
    return 1.0 + size


def require_finite(m: np.ndarray) -> np.ndarray:
    """m itself when every entry is finite; otherwise ValueError. A matrix
    whose entries overflowed is not an operator any oracle can certify."""
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    return m


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (..., m, n) stack of matrices, the one
    spectral-norm path of the package, bit for bit np.linalg.norm(., 2).

    A slice with no nonzero entry (-0.0 included) gets exactly 0.0, the
    value LAPACK gives it, and never reaches LAPACK; the live slices,
    NaN and inf ones among them, go to one batched
    np.linalg.svd(., compute_uv=False). A stack with no zero slice goes to
    it as it is, uncopied; only a stack with one is gathered. Empty
    matrices, such as the Aluthge core of T = 0, have norm 0."""
    if 0 in stack.shape[-2:]:
        return np.zeros(stack.shape[:-2])
    live = stack.any(axis=(-2, -1))
    if live.all():
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    norms = np.zeros(stack.shape[:-2])
    if live.any():
        norms[live] = np.linalg.svd(stack[live], compute_uv=False)[:, 0]
    return norms


def op_deviations(a: np.ndarray, b: np.ndarray, b_norms: np.ndarray) -> np.ndarray:
    """Slice-wise distance ||a_k - b_k|| of two (k, n, n) stacks of operator
    matrices on the reference_scale of b_norms, the norms of the reference
    side b. Real stacks stay real, so their norms take real SVDs."""
    return spectral_norms(a - b) / reference_scale(b_norms)


# The Frobenius bound's factor, a slack of 1e-9: far above the rounding of
# the bound's sum and of LAPACK's largest singular value (both O(n eps)).
_BOUND_SLACK = 1.000000001


def max_op_deviation(diff: np.ndarray, b_norms: np.ndarray) -> float:
    """The largest op_deviations of a nonempty (k, m, n) stack of
    residuals d = a - b and the norms of the reference side b: bit for bit
    op_deviations(a, b, b_norms).max(), with fewer SVDs.

    Since ||d_k|| <= ||d_k||_F, a slice whose Frobenius bound is not above
    the largest deviation found so far cannot be the maximum. The exact
    norms are taken through spectral_norms one slice at a time, in
    decreasing bound order, until that happens. Each slice's moduli are
    divided by their largest one first, so no square under- or overflows;
    a bound that is not finite (NaN or inf entries, a NaN or inf norm of b)
    sends the whole stack to spectral_norms instead.
    """
    scale = reference_scale(b_norms)
    moduli = np.abs(diff)
    peaks = moduli.max(axis=(-2, -1))
    with np.errstate(invalid="ignore", over="ignore"):
        moduli /= np.where(peaks > 0.0, peaks, 1.0)[:, None, None]
        frobenius = peaks * np.sqrt(np.square(moduli, out=moduli).sum(axis=(-2, -1)))
        bounds = frobenius * _BOUND_SLACK / scale
    if not np.isfinite(bounds).all():
        return (spectral_norms(diff) / scale).max()
    worst = -np.inf
    for k in np.argsort(bounds)[::-1]:
        if bounds[k] <= worst:
            break
        worst = max(worst, spectral_norms(diff[k]) / scale[k])
    return worst


class SvdOracle:
    """Every oracle quantity of a square operator a, read off one SVD
    a = L diag(sigma) R*; the one factorization path of the oracles.

    Singular values at or below RANK_TOL * sigma_max count as kernel (all
    of them for the zero operator); keep marks the others. a* a and a a*
    are never formed: every function of them, the polar factor and its
    root among them, is one calculus on the kept columns R_k of R or L_k
    of L, f(0) I + R_k diag(f(sigma_k^2) - f(0)) R_k* (gram_calc,
    cogram_calc), so no kernel column, nor its rounding f(0) (I - R R*),
    enters it. Its norm, max |f| over the spectrum, holds |f(0)| only when
    a has a kernel. ker a, spanned by the columns of R the cut drops, is
    compared through the kept ones (kernel_gap).
    """

    def __init__(self, a: np.ndarray) -> None:
        self.left, self.sigma, self.right_h = np.linalg.svd(a)
        self.norm = float(self.sigma[0]) if self.sigma.size else 0.0
        self.keep = self.sigma > RANK_TOL * self.norm

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """Polar factors (U, P) of a = U P: P = (a* a)^(1/2), and U the
        partial isometry with ker U = ker P = ker a."""
        u = self.left[:, self.keep] @ self.right_h[self.keep, :]
        return u, self.gram_calc(self.sigma[self.keep])

    def root(self) -> np.ndarray:
        """P^(1/2) = (a* a)^(1/4), the half power of the positive factor."""
        return self.gram_calc(np.sqrt(self.sigma[self.keep]))

    def kernel_gap(self, other: SvdOracle) -> float:
        """||K_self - K_other||, K the orthogonal projection onto the kernel,
        read off the two SVDs and never formed.

        Projections of different rank are at distance exactly 1. For equal
        ranks ||P - Q|| = ||(I - Q) P||, the sine of the largest principal
        angle between the kernels (Bjorck and Golub 1973): the norm of the
        rank x nullity product of other's kept right singular vectors with
        self's kernel ones, empty (gap 0) for a full-rank or zero a."""
        if self.keep.sum() != other.keep.sum():
            return 1.0
        return float(spectral_norms(
            other.right_h[other.keep] @ self.right_h[~self.keep].conj().T))

    def squares(self) -> np.ndarray:
        """sigma_k^2 on the kept singular values, in SVD order: the spectrum
        of a* a and of a a* off their kernel, where it is 0. A finite a
        whose Gram product overflows has no spectrum an oracle can certify:
        ValueError, as for an a with entries that overflow."""
        with np.errstate(over="ignore"):
            return require_finite(self.sigma[self.keep] ** 2)

    def gram_calc(self, values: np.ndarray, f0: complex | np.ndarray = 0.0) -> np.ndarray:
        """f(a* a) = f0 I + R_k diag(values - f0) R_k*, for values =
        f(squares()) and f0 = f(0). A vector of values gives one matrix; an
        (m, K) stack of them, with an (m,) vector f0, gives m matrices."""
        rows = self.right_h[self.keep]
        return _on_range(rows.conj().T, rows, values, f0)

    def cogram_calc(self, values: np.ndarray, f0: complex | np.ndarray = 0.0) -> np.ndarray:
        """f(a a*) = f0 I + L_k diag(values - f0) L_k*, shaped as for
        gram_calc."""
        cols = self.left[:, self.keep]
        return _on_range(cols, cols.conj().T, values, f0)


def _on_range(cols: np.ndarray, rows: np.ndarray, values: np.ndarray,
              f0: complex | np.ndarray) -> np.ndarray:
    """f0 I + cols diag(values - f0) rows for the n x K kept columns and
    their K x n adjoint: f0 on the kernel, values on the kept range."""
    f0 = np.asarray(f0)[..., None]
    out = (cols * (values - f0)[..., None, :]) @ rows
    if f0.any():
        diag = np.arange(len(cols))
        out[..., diag, diag] += f0
    return out
