"""Independent reference implementations used only by the tests.

Nothing here may import from the package's computation paths: the
eigenvalue oracle goes through the characteristic polynomial (Newton's
identities on power traces, then polynomial root finding), entropies go
through numpy's LAPACK-backed eigvalsh, and the partial trace is an
explicit index summation.  Agreement between these and the package is
the point of the tests, so keeping the routes disjoint matters more
than speed.
"""

import math

import numpy as np


def char_poly_eigenvalues(matrix):
    """Eigenvalues as roots of the characteristic polynomial.

    Newton's identities convert power sums p_k = tr(M^k) into elementary
    symmetric polynomials e_k; the characteristic polynomial is then
    sum_k (-1)^k e_k x^(d-k).
    """
    m = np.asarray(matrix, dtype=complex)
    d = m.shape[0]
    power = np.eye(d, dtype=complex)
    p = []
    for _ in range(d):
        power = power @ m
        p.append(np.trace(power).real)
    e = [1.0]
    for k in range(1, d + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(acc / k)
    coeffs = [(-1.0) ** k * e[k] for k in range(d + 1)]
    return np.sort(np.roots(coeffs).real)


def entropy_bits(rho):
    """Base-2 von Neumann entropy via numpy's eigvalsh."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def divergence_ref(a, b):
    rad = entropy_bits(0.5 * (np.asarray(a) + np.asarray(b)))
    rad -= 0.5 * (entropy_bits(a) + entropy_bits(b))
    return math.sqrt(max(rad, 0.0))


def c_total_ref(q, nu):
    """The model's total coherence, written out from its weights.

    The state's spectrum is {0, 2*alpha, beta, gamma}; its mixture with
    I/4 has spectrum (p + 1/4)/2, and S(I/4) = 2 bits.
    """
    q = np.asarray(q, dtype=float)
    nu2 = nu * nu
    den = 2.0 * (1.0 - q) + nu2 * (1.0 + q)
    weights = (0.0, 2.0 * (1.0 - q) / den, nu2 * q / den, nu2 / den)
    p = np.stack(np.broadcast_arrays(*weights))

    def bits(w):
        return -np.sum(w * np.log2(np.where(w > 0.0, w, 1.0)), axis=0)

    return np.sqrt(np.maximum(bits(0.5 * (p + 0.25)) - 0.5 * bits(p) - 1.0, 0.0))


def reduce_explicit(rho, keep, dims):
    """Partial trace by explicit summation over composite indices."""
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(dims)
    dk = dims[keep]
    out = np.zeros((dk, dk), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if all(row[j] == col[j] for j in range(len(dims)) if j != keep):
                r = int(np.ravel_multi_index(row, dims))
                c = int(np.ravel_multi_index(col, dims))
                out[row[keep], col[keep]] += rho[r, c]
    return out


def product_surrogate_ref(rho, dims):
    out = reduce_explicit(rho, 0, dims)
    for k in range(1, len(dims)):
        out = np.kron(out, reduce_explicit(rho, k, dims))
    return out


def triple_ref(rho, dims=(2, 2)):
    """Reference (total, collective, localized) via the eigvalsh route."""
    rho = np.asarray(rho, dtype=complex)
    mixed = np.eye(rho.shape[0]) / rho.shape[0]
    pi = product_surrogate_ref(rho, dims)
    return (
        divergence_ref(rho, mixed),
        divergence_ref(rho, pi),
        divergence_ref(pi, mixed),
    )


def random_density(rng, dim):
    """Normalized A A^dagger for complex Gaussian A."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, dim):
    """QR orthonormalization of a random complex matrix, phases fixed."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def singlet_state():
    """(|01> + |10>)(<01| + <10|)/2 in the standard 4-dim basis."""
    v = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(v, v).astype(complex)


SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def swap_qubits(rho):
    return SWAP @ np.asarray(rho, dtype=complex) @ SWAP
