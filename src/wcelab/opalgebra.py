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

from functools import cached_property

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


def singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values, largest first, of a (..., m, n) stack of matrices:
    (..., min(m, n)), the one singular-value path of the package. A slice
    with no nonzero entry (-0.0 included) gets exactly zeros, the values
    LAPACK gives it, without reaching LAPACK; the live slices, NaN and inf
    ones among them, go to one batched np.linalg.svd(., compute_uv=False),
    which takes a stack with no zero slice as it is, uncopied."""
    live = stack.any(axis=(-2, -1))
    if live.all():
        return np.linalg.svd(stack, compute_uv=False)
    values = np.zeros(stack.shape[:-2] + (min(stack.shape[-2:]),))
    if live.any():
        values[live] = np.linalg.svd(stack[live], compute_uv=False)
    return values


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (..., m, n) stack of matrices, the one
    spectral-norm path of the package, bit for bit np.linalg.norm(., 2):
    the largest of singular_values. Empty matrices, such as the Aluthge
    core of T = 0, have norm 0."""
    if 0 in stack.shape[-2:]:
        return np.zeros(stack.shape[:-2])
    return singular_values(stack)[..., 0]


def op_deviations(a: np.ndarray, b: np.ndarray, b_norms: np.ndarray) -> np.ndarray:
    """Slice-wise distance ||a_k - b_k|| of two (k, n, n) stacks of operator
    matrices on the reference_scale of b_norms, the norms of the reference
    side b. Real stacks stay real, so their norms take real SVDs."""
    return spectral_norms(a - b) / reference_scale(b_norms)


def frame_norms(factors: np.ndarray, n: int, shifts: np.ndarray,
                cores: np.ndarray) -> np.ndarray:
    """||s_k I + F C_k F*|| for an n x p frame F, an (m,) vector of shifts
    s_k and an (m, p, p) stack of cores C_k, with no n x n matrix formed: m
    norms, or (..., m) for a (..., n, p) stack of frames, against which
    (..., m) shifts and (..., m, p, p) cores broadcast.

    F is passed as the R factor S of its Householder QR F = Z S, the
    (..., q, p) np.linalg.qr(F, mode="r"), Z with q = min(n, p) orthonormal
    columns (orthonormal for a rank-deficient F too), so a caller that
    holds S reads every operator on F off it. S splits each operator into
    s_k I_q + S C_k S* on range Z and s_k I on its complement. So its norm
    is the largest singular value of the q x q matrix, from one batched
    SVD, and at least |s_k| when q < n. A non-finite shift or q x q entry
    raises ValueError, as require_finite does."""
    s = factors[..., None, :, :]
    q = s.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):
        small = s @ cores @ s.conj().swapaxes(-1, -2) + shifts[..., None, None] * np.eye(q)
    norms = spectral_norms(require_finite(small))
    if q < n:
        norms = np.maximum(norms, np.abs(require_finite(shifts)))
    return norms


class SvdOracle:
    """Every oracle quantity of a square operator a, read off one SVD
    a = L diag(sigma) R*; the one factorization path of the oracles.

    Singular values at or below RANK_TOL * sigma_max count as kernel (all
    of them for the zero operator); keep marks the others, and vectors
    holds the kept columns R_k of R and L_k of L. a* a and a a* are never
    formed: every function of them lives on those columns, f(0) I + R_k
    diag(f(sigma_k^2) - f(0)) R_k*, so no kernel column, nor its rounding
    f(0) (I - R R*), enters it. The root of the positive factor is such a
    calculus with f(0) = 0 (gram_calc); any other f is handed out as its
    factors (calc_frames), for frame_norms to compare. Its norm, max |f|
    over the spectrum, holds |f(0)| only when a has a kernel. The polar
    factor |a| and ker a are compared on the kept vectors themselves, which
    span the orthogonal complement of ker a.
    """

    def __init__(self, a: np.ndarray) -> None:
        self.left, self.sigma, self.right_h = np.linalg.svd(a)
        self.norm = float(self.sigma[0]) if self.sigma.size else 0.0
        self.keep = self.sigma > RANK_TOL * self.norm

    @cached_property
    def vectors(self) -> np.ndarray:
        """The kept singular vectors as one (2, n, K) stack [R_k, L_k]."""
        return np.stack((self.right_h[self.keep].conj().T, self.left[:, self.keep]))

    def polar(self) -> np.ndarray:
        """The polar factor U = L_k R_k* of a = U |a|: the partial isometry
        with ker U = ker a."""
        return self.left[:, self.keep] @ self.right_h[self.keep, :]

    def root(self) -> np.ndarray:
        """|a|^(1/2) = (a* a)^(1/4), the half power of the positive factor."""
        return self.gram_calc(np.sqrt(self.sigma[self.keep]))

    def squares(self) -> np.ndarray:
        """sigma_k^2 on the kept singular values, in SVD order: the spectrum
        of a* a and of a a* off their kernel, where it is 0. A finite a
        whose Gram product overflows has no spectrum an oracle can certify:
        ValueError, as for an a with entries that overflow."""
        with np.errstate(over="ignore"):
            return require_finite(self.sigma[self.keep] ** 2)

    def gram_calc(self, values: np.ndarray) -> np.ndarray:
        """f(a* a) = R_k diag(values) R_k* for values = f(squares()) of an f
        with f(0) = 0."""
        rows = self.right_h[self.keep]
        return (rows.conj().T * values) @ rows

    def calc_frames(self, values: np.ndarray,
                    f0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f(a* a) and f(a a*) as (f(0), kept vectors, values - f(0)):
        f0 I + R_k diag(values - f0) R_k* and the same on L_k, for an (m, K)
        stack of values = f(squares()) and the (m,) vector f0 = f(0). The
        kept vectors are the (2, n, K) stack [R_k, L_k]."""
        return f0, self.vectors, values - f0[:, None]
