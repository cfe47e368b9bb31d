"""Two-detector state after a uniformly accelerated interaction window.

One detector accelerates uniformly, the other stays inertial; both
couple weakly to the field through a Gaussian switching window.  To
leading order in the coupling the joint state depends on two
dimensionless numbers only:

    q  in [0, 1]   thermal weight exp(-2*pi*gap/acceleration)
    nu >= 0        effective coupling, nu^2 = eps^2*gap*width*exp(-gap^2*tail^2)/(2*pi)

The joint state in the ordered basis |00>, |01>, |10>, |11> (first
factor = accelerated detector) is

    [[gamma, 0,     0,     0   ],
     [0,     alpha, alpha, 0   ],
     [0,     alpha, alpha, 0   ],
     [0,     0,     0,     beta]]

with alpha = (1-q)/D, beta = nu^2*q/D, gamma = nu^2/D and
D = 2*(1-q) + nu^2*(1+q).  At q=1, nu=0 the denominator vanishes and
the state is undefined; that point is rejected everywhere.

Every spectrum needed for the three coherence measures has a closed
form in (alpha, beta, gamma), collected in `closed_form_spectra`; the
generic eigensolver path must reproduce them to round-off, which is the
package's main internal cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import (
    CoherenceTriple,
    family_spectra,
    measures_from_spectra,
    numeric_spectra,
)
from .errors import DomainError, require_non_negative, require_positive

# Unused here since spectra come from `numeric_spectra`; kept bound because
# perfbench's tracer test checks this module's binding of it.
from .linalg import hermitian_eigenvalues  # noqa: F401

# Perturbative treatment is only trustworthy for weak coupling; warn
# beyond this.
COUPLING_WARN_THRESHOLD = 0.1

# Closed-form spectrum constraint slop (exact identities up to float
# rounding in alpha, beta, gamma themselves).
_CONSTRAINT_TOL = 1e-12


def _coupling_warning(nu_squared):
    if nu_squared > COUPLING_WARN_THRESHOLD:
        return (
            f"nu^2 = {nu_squared:.6g} exceeds {COUPLING_WARN_THRESHOLD}; "
            "the leading-order state is unreliable at this coupling"
        )
    return None


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model point (q, nu), defined off the corner q=1, nu=0."""

    q: float
    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and 0.0 <= self.q <= 1.0):
            raise DomainError(f"q must lie in [0, 1], got {self.q!r}")
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise DomainError(f"nu must be non-negative, got {self.nu!r}")
        if self.q == 1.0 and self.nu == 0.0:
            raise DomainError("state is undefined at q=1, nu=0")

    @property
    def nu_squared(self):
        return self.nu * self.nu

    def validity_warnings(self):
        w = _coupling_warning(self.nu_squared)
        return (w,) if w else ()


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs that map onto (q, nu).

    omega  detector energy gap (> 0)
    accel  proper acceleration of the moving detector (>= 0)
    eps    coupling strength (>= 0)
    delta  Gaussian window width (> 0)
    kappa  window tail parameter (>= 0)
    """

    omega: float
    accel: float
    eps: float
    delta: float
    kappa: float = 0.0

    def __post_init__(self):
        require_positive("omega", self.omega)
        require_non_negative("accel", self.accel)
        require_non_negative("eps", self.eps)
        require_positive("delta", self.delta)
        require_non_negative("kappa", self.kappa)

    def validity_warnings(self):
        warnings = []
        if self.omega * self.delta < 10.0:
            warnings.append(
                f"omega*delta = {self.omega * self.delta:.6g} < 10; the window "
                "is too short for the single-gap approximation"
            )
        w = _coupling_warning(nu_squared_from_physical(self))
        if w:
            warnings.append(w)
        return tuple(warnings)


def q_from_acceleration(omega, accel):
    """Thermal weight exp(-2*pi*omega/accel); zero acceleration gives 0."""
    require_positive("omega", omega)
    require_non_negative("accel", accel)
    if accel == 0.0:
        return 0.0
    return math.exp(-2.0 * math.pi * omega / accel)


def nu_squared_from_physical(params):
    """Effective squared coupling for Gaussian switching."""
    return (
        params.eps ** 2
        * params.omega
        * params.delta
        * math.exp(-(params.omega ** 2) * params.kappa ** 2)
        / (2.0 * math.pi)
    )


def model_params_from_physical(params):
    """Collapse physical inputs to the dimensionless pair (q, nu)."""
    q = q_from_acceleration(params.omega, params.accel)
    nu = math.sqrt(nu_squared_from_physical(params))
    return ModelParams(q=q, nu=nu)


def alpha_beta_gamma(q, nu):
    """Weights of the joint state; batch aware.

    Raises DomainError outside 0 <= q <= 1, nu >= 0 or at the
    degenerate corner q=1, nu=0.
    """
    q = np.asarray(q, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(q)) or np.any(q < 0.0) or np.any(q > 1.0):
        raise DomainError("q must lie in [0, 1]")
    if not np.all(np.isfinite(nu)) or np.any(nu < 0.0):
        raise DomainError("nu must be non-negative")
    if np.any((q == 1.0) & (nu == 0.0)):
        raise DomainError("state is undefined at q=1, nu=0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nu2 = nu * nu
        den = 2.0 * (1.0 - q) + nu2 * (1.0 + q)
        weights = ((1.0 - q) / den, nu2 * q / den, nu2 / den)
    # Where den overflows, or nu*nu underflows at q=1, the quotients are
    # 0 or NaN.  There the weights are their limits, found by dividing
    # through by nu^2: (0, q/(1+q), 1/(1+q)) as nu^2 -> inf.  At q=1
    # that is (0, 1/2, 1/2) for every nu > 0, which the quotients give
    # exactly wherever nu*nu neither under- nor overflows.
    limit = np.isinf(den) | (q == 1.0)
    limits = (0.0, q / (1.0 + q), 1.0 / (1.0 + q))
    return tuple(np.where(limit, lim, w)[()] for lim, w in zip(limits, weights))


def detector_matrix(alpha, beta, gamma):
    """Assemble the 4x4 joint state from its weights; batch aware."""
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, dtype=float),
        np.asarray(beta, dtype=float),
        np.asarray(gamma, dtype=float),
    )
    out = np.zeros(alpha.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = gamma
    out[..., 1, 1] = alpha
    out[..., 2, 2] = alpha
    out[..., 3, 3] = beta
    out[..., 1, 2] = alpha
    out[..., 2, 1] = alpha
    return out


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """A model point with its weights and assembled state."""

    params: ModelParams
    alpha: float
    beta: float
    gamma: float
    state: np.ndarray


def detector_state(params):
    """Build the ModelPoint for validated parameters."""
    alpha, beta, gamma = alpha_beta_gamma(params.q, params.nu)
    return ModelPoint(
        params=params,
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        state=detector_matrix(alpha, beta, gamma),
    )


def closed_form_spectra(alpha, beta, gamma):
    """Exact eigenvalues of the five reference states; batch aware.

    With u = alpha + beta and v = alpha + gamma (the reduction weights),
    three families carry closed forms:

        state              {0, 2*alpha, beta, gamma}
        product            {u^2, u*v, u*v, v^2}
        mid_state_product  {(beta+u^2)/2, u*v/2, (2*alpha+u*v)/2, (gamma+v^2)/2}

    and `family_spectra` derives the two mixtures with I/4 from the
    first two, as the eigensolver route does.  Returns a dict keyed and
    ordered like `reference_states`, each value sorted ascending along
    its last axis, so the closed-form and eigensolver spectra feed the
    same `measures_from_spectra`.  Raises DomainError if the weights are
    not a normalized non-negative triple (2*alpha + beta + gamma = 1).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    lowest = min(float(np.min(alpha)), float(np.min(beta)), float(np.min(gamma)))
    if lowest < -_CONSTRAINT_TOL:
        raise DomainError(f"negative weight {lowest:.6e}")
    norm_defect = float(np.max(np.abs(2.0 * alpha + beta + gamma - 1.0)))
    if norm_defect > _CONSTRAINT_TOL:
        raise DomainError(f"weights not normalized (defect {norm_defect:.3e})")
    u = alpha + beta
    v = alpha + gamma
    uv = u * v

    def pack(*entries):
        return np.sort(np.stack(np.broadcast_arrays(*entries), axis=-1), axis=-1)

    return family_spectra(
        pack(np.zeros_like(alpha), 2.0 * alpha, beta, gamma),
        pack(u * u, uv, uv, v * v),
        pack(
            0.5 * (beta + u * u),
            0.5 * uv,
            0.5 * (2.0 * alpha + uv),
            0.5 * (gamma + v * v),
        ),
        4,
    )


def coherence_closed_form(q, nu):
    """All three measures from the closed-form spectra; batch aware."""
    spectra = closed_form_spectra(*alpha_beta_gamma(q, nu))
    return CoherenceTriple.from_components(*measures_from_spectra(spectra, 4))


def spectra_comparison(params):
    """Closed-form vs eigensolver spectra at one model point.

    Returns (closed spectra dict, numeric spectra dict, per-family gap dict).
    """
    point = detector_state(params)
    closed = closed_form_spectra(point.alpha, point.beta, point.gamma)
    numeric = numeric_spectra(point.state, (2, 2))
    gaps = {
        name: float(np.max(np.abs(numeric[name] - values)))
        for name, values in closed.items()
    }
    return closed, numeric, gaps
