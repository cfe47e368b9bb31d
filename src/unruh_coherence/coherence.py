"""Basis-independent coherence measures built on a square-root divergence.

The divergence between two states is

    div(rho, sigma) = sqrt( S((rho+sigma)/2) - (S(rho) + S(sigma))/2 )

with S the base-2 von Neumann entropy.  Three derived measures:

    total      = div(rho, I/d)          distance to the maximally mixed state
    collective = div(rho, pi)           distance to the product of reductions
    localized  = div(pi, I/d)           product-of-reductions to maximally mixed

where pi is the tensor product of the single-party reductions of rho.
The square root makes the divergence a metric, so the triangle
inequality  collective + localized >= total  holds for every state.

All functions accept leading batch axes and return matching batch shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionError, NumericalConsistencyError
from .linalg import (
    check_unit_trace,
    equal_mixture,
    hermitian_eigenvalues,
    maximally_mixed,
    partial_trace,
    spectrum_entropy,
    tensor_product,
    von_neumann_entropy,
)

# A squared divergence in [-RADICAND_TOL, 0) is round-off and clips to
# zero; anything more negative, or NaN, signals an inconsistent entropy
# triple.
RADICAND_TOL = 1e-12


def sqrt_clipped(radicand):
    """sqrt with the small-negative clipping policy applied."""
    rad = np.asarray(radicand, dtype=float)
    low = float(np.min(rad)) if rad.size else 0.0
    if not low >= -RADICAND_TOL:
        raise NumericalConsistencyError(
            f"negative squared divergence {low:.6e} exceeds round-off tolerance"
        )
    return np.sqrt(np.where(rad < 0.0, 0.0, rad))


def divergence_sqrt(rho, sigma):
    """Square-root entropic divergence between two density matrices."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    mid = equal_mixture(rho, sigma)
    radicand = von_neumann_entropy(mid) - 0.5 * (
        von_neumann_entropy(rho) + von_neumann_entropy(sigma)
    )
    return sqrt_clipped(radicand)


def _reductions(rho, dims):
    """The single-factor reductions of `rho`, in factor order."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise DimensionError("need at least two tensor factors")
    return [partial_trace(rho, k, dims) for k in range(len(dims))]


def product_surrogate(rho, dims):
    """Tensor product of the single-factor reductions of `rho`."""
    return reduce(tensor_product, _reductions(rho, dims))


def reference_states(rho, dims):
    """The five matrices whose spectra determine all three measures.

    Returns a dict, in canonical order: the state itself, the product
    of its reductions, and the three pairwise equal mixtures with the
    maximally mixed state interleaved.
    """
    rho = np.asarray(rho, dtype=complex)
    mixed = maximally_mixed(rho.shape[-1])
    product = product_surrogate(rho, dims)
    return {
        "state": rho,
        "product": product,
        "mid_state_mixed": equal_mixture(rho, mixed),
        "mid_state_product": equal_mixture(rho, product),
        "mid_product_mixed": equal_mixture(product, mixed),
    }


def measures_from_spectra(spectra, dim):
    """(total, collective, localized) from the five family spectra.

    `spectra` maps each family name of `reference_states` to its
    eigenvalues, for states of dimension `dim`.  This is the one place
    the three square-root divergences are assembled, so the closed-form
    and eigensolver routes differ only by their spectra.  The entropy of
    I/d enters as `- 0.5*log2(dim)` after `- 0.5*S`, the order that keeps
    the sweep CSV bytes fixed (`0.5*log2(4)` is exactly 1).
    """
    s_state = spectrum_entropy(spectra["state"])
    s_product = spectrum_entropy(spectra["product"])
    half_s_mixed = 0.5 * np.log2(float(dim))
    total = sqrt_clipped(
        spectrum_entropy(spectra["mid_state_mixed"]) - 0.5 * s_state - half_s_mixed
    )
    collective = sqrt_clipped(
        spectrum_entropy(spectra["mid_state_product"]) - 0.5 * (s_state + s_product)
    )
    localized = sqrt_clipped(
        spectrum_entropy(spectra["mid_product_mixed"]) - 0.5 * s_product - half_s_mixed
    )
    return total, collective, localized


def _outer_spectrum(a, b):
    """Spectrum of A (x) B from those of A and B, unsorted."""
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (a.shape[-1] * b.shape[-1],))


def family_spectra(state, product, mid_state_product, dim):
    """The five family spectra from the three that need computing.

    Returns a dict keyed and ordered like `reference_states`.  Mixing
    with I/d, which commutes with everything, maps each eigenvalue w to
    (w + 1/d)/2, so the two mixtures with I/d follow from the state and
    product spectra, ascending if those are.  Both the closed-form and
    the eigensolver route return through here.
    """
    inv_dim = 1.0 / dim
    return {
        "state": state,
        "product": product,
        "mid_state_mixed": 0.5 * (state + inv_dim),
        "mid_state_product": mid_state_product,
        "mid_product_mixed": 0.5 * (product + inv_dim),
    }


def numeric_spectra(rho, dims):
    """Eigensolver spectra of the five `reference_states` families.

    Returns a dict keyed and ordered like `reference_states`, each value
    ascending along its last axis.  Only the state and its mixture with
    the product of reductions go through `hermitian_eigenvalues` at full
    dimension; the product's spectrum is the sorted outer product of the
    reductions' spectra, since spec(A (x) B) = {a_i b_j}, and
    `family_spectra` derives the two mixtures with I/d.
    """
    rho = np.asarray(rho, dtype=complex)
    reductions = _reductions(rho, dims)
    product = reduce(tensor_product, reductions)
    product_values = np.sort(
        reduce(_outer_spectrum, map(hermitian_eigenvalues, reductions)), axis=-1
    )
    return family_spectra(
        hermitian_eigenvalues(rho),
        product_values,
        hermitian_eigenvalues(equal_mixture(rho, product)),
        rho.shape[-1],
    )


def coherence_components(rho, dims):
    """All three measures from one shared set of spectra.

    The spectra come from `numeric_spectra`, so a state costs two
    eigensolves at full dimension plus one per factor reduction, and the
    three measures are evaluated on identical spectra.  The state's unit
    trace is checked on its own spectrum, with the tolerance of
    `von_neumann_entropy`.

    Returns
    -------
    (total, collective, localized) arrays.
    """
    spectra = numeric_spectra(rho, dims)
    check_unit_trace(spectra["state"])
    return measures_from_spectra(spectra, spectra["state"].shape[-1])


@dataclass(frozen=True, eq=False)
class CoherenceTriple:
    """The three measures plus the triangle-inequality slack.

    `triangle_slack = c_collective + c_localized - c_total`; it is
    non-negative for every valid state (up to round-off).
    """

    c_total: float
    c_collective: float
    c_localized: float
    triangle_slack: float

    @classmethod
    def from_components(cls, total, collective, localized):
        return cls(total, collective, localized, collective + localized - total)


def coherence_triple(rho, dims):
    """Evaluate all three measures on `rho` and package them."""
    total, collective, localized = coherence_components(rho, dims)
    return CoherenceTriple.from_components(total, collective, localized)
