"""Dense Hermitian linear algebra on small matrices.

Everything here operates on explicit numpy arrays.  Matrices may carry
arbitrary leading batch axes; the last two axes are the matrix proper.
Eigenvalues come from a hand-rolled cyclic complex Jacobi iteration
applied to the Hermitian input directly and vectorised over the batch.
The solver stores the batch last, as (d, d, n) arrays, so a rotation
reads and writes contiguous length-n rows, and it works through the
batch in blocks of a few thousand matrices, so its temporaries stay
cache-sized.  Convergence is tested per matrix, so results are
bit-for-bit reproducible across runs on the same platform, do not
depend on the rest of the batch or on the block size, and do not
depend on LAPACK dispatch.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    PositivityError,
    ValidationError,
)

# Hermiticity / trace tolerance for state validation.
DEFAULT_TOL = 1e-9

# Eigenvalues of a density matrix in [-EIGENVALUE_CLIP_TOL, 0) are
# treated as round-off and clipped to zero; anything more negative is a
# genuine positivity violation and raises.
EIGENVALUE_CLIP_TOL = 1e-12

# Jacobi sweep control: a matrix has converged once every pivot is
# negligible against its diagonal, |a_pq| <= _PIVOT_TOL*sqrt|a_pp|*sqrt|a_qq|.
# The test is relative, so small eigenvalues come out to high relative
# accuracy at any scale (Demmel & Veselic, SIAM J. Matrix Anal. Appl.
# 13:1204, 1992).
_PIVOT_TOL = 1e-15
_MAX_SWEEPS = 100
_TINY = np.finfo(float).tiny

# Matrices per solved block.  A rotation's temporaries are rows of one
# block, so they stay in cache and the allocator reuses their pages
# instead of faulting in fresh ones; 2048 to 4096 time alike for d = 4.
_BLOCK = 2048


def _as_square(m, name="matrix"):
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _converged(a):
    """Per matrix of a (d, d, n) array, whether every pivot is negligible.

    The roots of the diagonal are taken apart, not as sqrt(|a_pp*a_qq|),
    whose product underflows for diagonal entries below about 1e-162.
    """
    dim = a.shape[0]
    p, q = np.triu_indices(dim, 1)
    root = np.sqrt(np.abs(a[range(dim), range(dim)].real))
    return np.all(np.abs(a[p, q]) <= _PIVOT_TOL * root[p] * root[q], axis=0)


def _jacobi_sweep(a):
    """One cyclic sweep of complex Jacobi rotations, in place, over the batch.

    `a` is batch-last, shape (d, d, n), so every pivot reads and writes
    contiguous length-n rows.  For each pair (p, q) a unit phase on
    index q makes a[p, q] real and a real rotation zeroes it.  Rows p
    and q are computed and the columns set from them, so a stays exactly
    Hermitian with a real diagonal.
    """
    dim = a.shape[0]
    for p in range(dim - 1):
        for q in range(p + 1, dim):
            apq = a[p, q]
            r = np.abs(apq)
            app = a[p, p].real.copy()
            aqq = a[q, q].real.copy()
            # Stable closed-form rotation angle: t is the smaller root
            # of t^2 + 2*tau*t - 1 = 0, which zeroes the (p, q) entry;
            # tau overflowing for tiny r gives t = 0.  A subnormal pivot
            # is zeroed unrotated, as its phase would overflow.
            rotate = r >= _TINY
            safe_r = np.where(rotate, r, 1.0)
            with np.errstate(over="ignore"):
                tau = (aqq - app) / (2.0 * safe_r)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (
                    np.abs(tau) + np.hypot(1.0, tau)
                )
            t = np.where(rotate, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            phase = np.where(rotate, apq / safe_r, 1.0)
            row_p = a[p].copy()
            row_q = a[q] * phase
            a[p] = c * row_p - s * row_q
            a[q] = s * row_p + c * row_q
            a[p, p] = app - t * r
            a[q, q] = aqq + t * r
            a[p, q] = a[q, p] = 0.0
            a[:, p] = a[p].conj()
            a[:, q] = a[q].conj()


def _solve_block(m):
    """Ascending eigenvalues of a hermiticity-checked (n, d, d) block."""
    # Force exact hermiticity (a real diagonal), batch-last; for
    # already-Hermitian input this is a bitwise no-op.
    m = m.transpose(1, 2, 0)
    a = np.empty(m.shape, dtype=complex)
    np.add(m, np.conj(m.transpose(1, 0, 2)), out=a)
    a *= 0.5
    pending = np.arange(a.shape[-1])
    work = a
    for sweep in range(_MAX_SWEEPS + 1):
        done = _converged(work)
        if np.any(done):
            a[..., pending[done]] = work[..., done]
            pending, work = pending[~done], work[..., ~done]
        if not pending.size:
            break
        if sweep == _MAX_SWEEPS:
            residual = np.max(np.abs(work[np.triu_indices(work.shape[0], 1)]))
            raise ValidationError(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps "
                f"(largest off-diagonal entry {float(residual):.3e})"
            )
        _jacobi_sweep(work)
    return np.sort(np.diagonal(a).real, axis=-1)


def hermitian_eigenvalues(matrix):
    """Eigenvalues of Hermitian matrices by cyclic complex Jacobi.

    Each matrix is rotated directly (Golub & Van Loan, Matrix
    Computations, section 8.5), with a unit phase per rotation that
    makes the pivot real.  Convergence is tested per matrix, relative
    to its diagonal: a sweep touches only the matrices with a pivot
    |a_pq| > _PIVOT_TOL*sqrt|a_pp|*sqrt|a_qq|, so a matrix's eigenvalues
    do not depend on the rest of its batch, nor lose relative accuracy
    when all its entries are small.  A matrix still unconverged after
    _MAX_SWEEPS sweeps raises ValidationError.

    The batch is solved in blocks of _BLOCK matrices, each stored
    batch-last as a (d, d, n) array so that a rotation works on
    contiguous rows; as convergence is per matrix, the result does not
    depend on the block size.  Every block passes the hermiticity check
    before any is solved, and its error reports the largest defect in
    the whole batch.  The convergence error reports the residual of the
    first block that fails.

    Parameters
    ----------
    matrix : ndarray, shape (..., d, d)
        Hermitian (within DEFAULT_TOL in max-norm) complex or real matrices.

    Returns
    -------
    ndarray, shape (..., d)
        Real eigenvalues in ascending order.
    """
    m = _as_square(np.asarray(matrix, dtype=complex))
    batch_shape, dim = m.shape[:-2], m.shape[-1]
    if not m.size:
        return np.zeros(batch_shape + (dim,))
    m = m.reshape((-1, dim, dim))
    blocks = [m[start : start + _BLOCK] for start in range(0, len(m), _BLOCK)]
    defect = max(
        float(np.max(np.abs(b - np.conj(np.swapaxes(b, -1, -2))))) for b in blocks
    )
    if defect > DEFAULT_TOL:
        raise ValidationError(f"matrix is not Hermitian (defect {defect:.3e})")
    values = np.concatenate([_solve_block(b) for b in blocks])
    return values.reshape(batch_shape + (dim,))


def spectrum_entropy(values):
    """Shannon entropy (base 2) of one or more probability spectra.

    Values in [-1e-12, 0) are clipped to zero before the 0*log(0) = 0
    convention is applied; more negative or NaN entries raise
    PositivityError.

    Parameters
    ----------
    values : ndarray, shape (..., k)

    Returns
    -------
    ndarray or float, shape (...)
    """
    w = np.asarray(values, dtype=float)
    low = float(np.min(w)) if w.size else 0.0
    if not low >= -EIGENVALUE_CLIP_TOL:
        raise PositivityError(
            f"spectrum entry {low:.6e} below -{EIGENVALUE_CLIP_TOL:.0e}"
        )
    w = np.where(w < 0.0, 0.0, w)
    terms = np.zeros_like(w)
    positive = w > 0.0
    np.log2(w, out=terms, where=positive)
    return -np.sum(w * terms, axis=-1)


def check_unit_trace(values):
    """Return spectra whose sums are 1 within DEFAULT_TOL; else ValidationError.

    A NaN sum fails the check.
    """
    trace_defect = float(np.max(np.abs(np.sum(values, axis=-1) - 1.0), initial=0.0))
    if not trace_defect <= DEFAULT_TOL:
        raise ValidationError(f"trace differs from 1 by {trace_defect:.3e}")
    return values


def maximally_mixed(dim):
    """The maximally mixed state I/d on a `dim`-dimensional space."""
    if int(dim) != dim or dim < 1:
        raise DomainError(f"dimension must be a positive integer, got {dim!r}")
    return np.eye(int(dim), dtype=complex) / float(dim)


def equal_mixture(a, b):
    """The midpoint (a + b)/2 of two equal-dimension matrices."""
    a = _as_square(np.asarray(a, dtype=complex), name="first operand")
    b = _as_square(np.asarray(b, dtype=complex), name="second operand")
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(
            f"operands have different dimensions {a.shape[-1]} and {b.shape[-1]}"
        )
    return 0.5 * (a + b)


def tensor_product(a, b):
    """Kronecker product, batched over leading axes."""
    a = _as_square(np.asarray(a, dtype=complex), name="first factor")
    b = _as_square(np.asarray(b, dtype=complex), name="second factor")
    da, db = a.shape[-1], b.shape[-1]
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (da * db, da * db))


def partial_trace(rho, keep, dims):
    """Trace out all tensor factors except `keep`.

    Parameters
    ----------
    rho : ndarray, shape (..., D, D) with D = prod(dims)
    keep : int
        Index of the factor to retain.
    dims : sequence of int
        Dimension of each tensor factor, in order.

    Returns
    -------
    ndarray, shape (..., dims[keep], dims[keep])
    """
    rho = _as_square(np.asarray(rho, dtype=complex))
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if rho.shape[-1] != total:
        raise DimensionError(
            f"matrix dimension {rho.shape[-1]} != product of factors {total}"
        )
    if not 0 <= keep < len(dims):
        raise DimensionError(f"keep index {keep} out of range for {len(dims)} factors")
    batch_ndim = rho.ndim - 2
    work = rho.reshape(rho.shape[:-2] + dims + dims)
    remaining = list(range(len(dims)))
    while len(remaining) > 1:
        traced = next(i for i in remaining if i != keep)
        pos = remaining.index(traced)
        work = np.trace(
            work,
            axis1=batch_ndim + pos,
            axis2=batch_ndim + len(remaining) + pos,
        )
        remaining.remove(traced)
    return work
