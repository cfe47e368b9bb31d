import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from unruh_coherence import (
    DomainError,
    ModelParams,
    PhysicalParams,
    alpha_beta_gamma,
    closed_form_spectra,
    coherence_closed_form,
    coherence_triple,
    detector_matrix,
    detector_state,
    hermitian_eigenvalues,
    model_params_from_physical,
    nu_squared_from_physical,
    q_from_acceleration,
    spectra_comparison,
)
from unruh_coherence.coherence import reference_states

SEED = 20240813

SINGLET_COHERENCE = 0.7408069523805771

# exclude the one undefined point, q=1 with nu=0; q=1 with an underflowing
# nu*nu is valid and pinned by UNDERFLOW_CORNER
params_strategy = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
).filter(lambda p: p != (1.0, 0.0))
UNDERFLOW_CORNER = (1.0, 1e-170)


# ------------------------------------------------------------------ weights


def test_weights_singlet_point():
    a, b, g = alpha_beta_gamma(0.0, 0.0)
    assert (float(a), float(b), float(g)) == (0.5, 0.0, 0.0)


def test_weights_infinite_acceleration_point():
    a, b, g = alpha_beta_gamma(1.0, 0.1)
    assert (float(a), float(b), float(g)) == (0.0, 0.5, 0.5)


def test_weights_generic_point():
    a, b, g = alpha_beta_gamma(0.5, 0.5)
    assert float(a) == pytest.approx(4.0 / 11.0, abs=1e-15)
    assert float(b) == pytest.approx(1.0 / 11.0, abs=1e-15)
    assert float(g) == pytest.approx(2.0 / 11.0, abs=1e-15)


@pytest.mark.parametrize(
    "q, nu, expected",
    [
        # nu*nu underflows to 0 at q=1
        (1.0, 1e-170, (0.0, 0.5, 0.5)),
        # nu*nu overflows: the limit (0, q/(1+q), 1/(1+q))
        (0.3, 1e200, (0.0, 0.3 / 1.3, 1.0 / 1.3)),
        (0.0, 1e200, (0.0, 0.0, 1.0)),
        (1.0, 1e200, (0.0, 0.5, 0.5)),
        # nu*nu is finite but the denominator overflows
        (0.95, 1.3e154, (0.0, 0.95 / 1.95, 1.0 / 1.95)),
    ],
)
def test_weights_at_the_edges_of_the_float_range(q, nu, expected):
    ModelParams(q=q, nu=nu)  # a defined point
    weights = alpha_beta_gamma(q, nu)
    assert [float(w) for w in weights] == pytest.approx(expected, abs=1e-15)
    # inside a batch, the limit leaves the other points' arithmetic alone
    batch = alpha_beta_gamma(np.array([0.5, q]), np.array([0.5, nu]))
    generic = alpha_beta_gamma(0.5, 0.5)
    assert [float(w[1]) for w in batch] == [float(w) for w in weights]
    assert [float(w[0]) for w in batch] == [float(w) for w in generic]
    assert np.all(np.isfinite(coherence_closed_form(q, nu).c_total))


def test_weights_domain_errors():
    for q, nu in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.2), (float("nan"), 0.1)):
        with pytest.raises(DomainError):
            alpha_beta_gamma(q, nu)


def test_weights_degenerate_corner_rejected():
    with pytest.raises(DomainError):
        alpha_beta_gamma(1.0, 0.0)
    # also inside a batch
    with pytest.raises(DomainError):
        alpha_beta_gamma(np.array([0.5, 1.0]), np.array([0.1, 0.0]))


@given(params_strategy)
@example(UNDERFLOW_CORNER)
@settings(max_examples=300, deadline=None)
def test_weights_normalized_property(point):
    q, nu = point
    a, b, g = alpha_beta_gamma(q, nu)
    assert abs(2.0 * float(a) + float(b) + float(g) - 1.0) <= 1e-12
    assert min(float(a), float(b), float(g)) >= 0.0


# ------------------------------------------------------------ state assembly


def test_detector_matrix_layout():
    m = detector_matrix(0.3, 0.2, 0.2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.2
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.3
    expected[3, 3] = 0.2
    assert np.array_equal(m, expected)


def test_detector_state_singlet():
    point = detector_state(ModelParams(q=0.0, nu=0.0))
    assert np.max(np.abs(point.state - oracles.singlet_state())) < 1e-15
    assert (point.alpha, point.beta, point.gamma) == (0.5, 0.0, 0.0)


def test_detector_state_infinite_acceleration():
    point = detector_state(ModelParams(q=1.0, nu=0.1))
    assert np.allclose(point.state, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_detector_state_eigenvalues_match_closed_list():
    point = detector_state(ModelParams(q=0.5, nu=0.5))
    got = hermitian_eigenvalues(point.state)
    expected = np.sort([0.0, 2 * point.alpha, point.beta, point.gamma])
    assert np.max(np.abs(got - expected)) < 1e-12
    assert got == pytest.approx([0.0, 1.0 / 11.0, 2.0 / 11.0, 8.0 / 11.0], abs=1e-12)


def test_detector_state_degenerate_rejected():
    # the corner is refused when its parameters are built, so no state
    # can be asked for there
    with pytest.raises(DomainError, match="undefined at q=1, nu=0"):
        ModelParams(q=1.0, nu=0.0)


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(q=-0.5, nu=0.1)
    with pytest.raises(DomainError):
        ModelParams(q=0.5, nu=-0.1)
    with pytest.raises(DomainError):
        ModelParams(q=float("inf"), nu=0.1)
    # one check serves both: a batch error names its first failing value
    with pytest.raises(DomainError, match=r"q must lie in \[0, 1\], got 1\.5$"):
        alpha_beta_gamma([0.2, 1.5, -1.0], 0.1)
    with pytest.raises(DomainError, match="nu must be non-negative, got nan$"):
        alpha_beta_gamma(0.2, [0.1, float("nan"), -1.0])


def test_model_params_coupling_warning():
    assert ModelParams(q=0.5, nu=0.3).validity_warnings() == ()
    warnings = ModelParams(q=0.5, nu=0.4).validity_warnings()
    assert len(warnings) == 1 and "nu^2" in warnings[0]


# --------------------------------------------------------- physical mapping


def test_q_from_acceleration_limits():
    assert q_from_acceleration(1.0, 0.0) == 0.0
    assert q_from_acceleration(1.0, float("inf")) == 1.0
    assert q_from_acceleration(1.0, 2.0 * math.pi) == math.exp(-1.0)


def test_q_from_acceleration_domain():
    with pytest.raises(DomainError):
        q_from_acceleration(0.0, 1.0)
    with pytest.raises(DomainError):
        q_from_acceleration(1.0, -1.0)


@given(
    st.floats(0.01, 100.0),
    st.floats(0.01, 1000.0),
    st.floats(0.01, 1000.0),
)
# both weights underflow to 0: exp(-2*pi*30/0.25) is below the subnormals
@example(omega=30.0, a1=0.25, a2=0.125)
# the exponents differ in the last bit only
@example(omega=1.0, a1=1.0, a2=math.nextafter(1.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_q_strictly_increasing_in_acceleration(omega, a1, a2):
    assume(a1 != a2)
    lo, hi = sorted((a1, a2))
    q_lo = q_from_acceleration(omega, lo)
    q_hi = q_from_acceleration(omega, hi)
    assert 0.0 <= q_lo <= q_hi < 1.0
    # exp(-x) with x = 2*pi*omega/accel is strictly increasing in accel. In
    # float64 the order stays strict while q_lo is a normal number and the two
    # exponents differ by more than their rounding; past that both weights
    # round to the same value (0 once x exceeds ~745).
    x_lo = 2.0 * math.pi * omega / lo
    x_hi = 2.0 * math.pi * omega / hi
    eps = sys.float_info.epsilon
    if q_lo >= sys.float_info.min and x_lo - x_hi > 8.0 * eps * max(1.0, x_lo):
        assert q_lo < q_hi


def test_nu_squared_examples():
    zero = PhysicalParams(omega=1.0, accel=0.0, eps=0.0, delta=100.0, kappa=0.0)
    assert nu_squared_from_physical(zero) == 0.0
    flagged = PhysicalParams(omega=1.0, accel=0.0, eps=0.1, delta=100.0, kappa=0.0)
    assert nu_squared_from_physical(flagged) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-15
    )
    suppressed = PhysicalParams(
        omega=1.0, accel=0.0, eps=0.1, delta=100.0, kappa=float("inf")
    )
    assert nu_squared_from_physical(suppressed) == 0.0
    # kappa^2 overflows a float; the coupling is still suppressed to 0
    overflowing = PhysicalParams(omega=1.0, accel=0.0, eps=0.1, delta=20.0, kappa=1e200)
    assert nu_squared_from_physical(overflowing) == 0.0
    # omega^2 underflows and kappa^2 overflows, so the exp factor is NaN
    uncoupled = PhysicalParams(omega=1e-200, accel=1e-200, eps=0.0, delta=1.0, kappa=1e200)
    assert nu_squared_from_physical(uncoupled) == 0.0


# Where the direct product overflows or is NaN, nu^2 comes from its log.
# Truth from 50-digit mpmath; all at accel=1, delta=1.
@pytest.mark.parametrize(
    "omega, eps, kappa, want",
    [
        (1e-200, 0.1, 1e200, 5.85498315243e-204),  # exponent -1: 0 * inf
        (1.0, 1e200, 30.0, 2.17163293084e8),  # eps^2 = inf against exp = 0
        (1.0, 1e200, 20.0, 3.04808708176e225),  # eps^2 = inf, exp finite
    ],
)
def test_nu_squared_falls_back_to_log_space(omega, eps, kappa, want):
    phys = PhysicalParams(omega=omega, accel=1.0, eps=eps, delta=1.0, kappa=kappa)
    assert nu_squared_from_physical(phys) == pytest.approx(want, rel=1e-11, abs=0.0)


# Where eps*eps or a later partial product is subnormal or 0, nu^2 also
# comes from its log.  Truth from 50-digit mpmath; all at omega=accel=1.
@pytest.mark.parametrize(
    "eps, delta, kappa, want",
    [
        (1e-170, 1e300, 0.0, 1.59154943091895e-41),  # eps^2 = 0
        (1e-160, 1e300, 0.0, 1.59154943091895e-21),  # eps^2 subnormal
        (1e150, 1.0, 30.0, 2.17163293084248e-92),  # exp factor = 0
    ],
)
def test_nu_squared_takes_the_log_route_past_an_underflow(eps, delta, kappa, want):
    phys = PhysicalParams(omega=1.0, accel=1.0, eps=eps, delta=delta, kappa=kappa)
    assert nu_squared_from_physical(phys) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_nu_squared_keeps_the_direct_product_on_ordinary_inputs():
    rng = np.random.default_rng(SEED)
    draws = 10.0 ** rng.uniform(-3.0, 3.0, size=(10000, 4))
    draws[:, 3] *= 1e-5  # kappa, so that omega*kappa <= 10
    for omega, eps, delta, kappa in draws.tolist():
        phys = PhysicalParams(omega=omega, accel=1.0, eps=eps, delta=delta, kappa=kappa)
        direct = eps * eps * omega * delta * math.exp(-(omega * omega) * (kappa * kappa))
        assert nu_squared_from_physical(phys) == direct / (2.0 * math.pi)


def test_physical_params_validation_and_warnings():
    with pytest.raises(DomainError):
        PhysicalParams(omega=0.0, accel=1.0, eps=0.1, delta=1.0, kappa=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(omega=1.0, accel=-1.0, eps=0.1, delta=1.0, kappa=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(omega=1.0, accel=1.0, eps=0.1, delta=0.0, kappa=0.0)
    # the mapped point is checked too: the corner, and an unrepresentable nu^2
    with pytest.raises(DomainError, match="undefined at q=1, nu=0"):
        PhysicalParams(omega=1.0, accel=1e308, eps=1e-200, delta=1.0, kappa=0.0)
    with pytest.raises(DomainError, match=r"nu\^2 is not a finite float, got inf"):
        PhysicalParams(omega=1.0, accel=1.0, eps=1e100, delta=1e200, kappa=0.0)
    with pytest.raises(DomainError, match=r"nu\^2 is not a finite float, got nan"):
        PhysicalParams(omega=float("inf"), accel=1.0, eps=0.1, delta=1.0, kappa=0.0)
    short_window = PhysicalParams(omega=1.0, accel=1.0, eps=0.01, delta=2.0, kappa=0.0)
    assert any("omega*delta" in w for w in short_window.validity_warnings())
    strong = PhysicalParams(omega=1.0, accel=1.0, eps=0.1, delta=100.0, kappa=0.0)
    assert any("nu^2" in w for w in strong.validity_warnings())
    quiet = PhysicalParams(omega=1.0, accel=1.0, eps=0.01, delta=100.0, kappa=0.0)
    assert quiet.validity_warnings() == ()


def test_model_params_from_physical_roundtrip():
    phys = PhysicalParams(omega=1.0, accel=2.0 * math.pi, eps=0.05, delta=400.0, kappa=0.0)
    params = model_params_from_physical(phys)
    assert params.q == math.exp(-1.0)
    assert params.nu == pytest.approx(
        math.sqrt(nu_squared_from_physical(phys)), abs=1e-15
    )


# ------------------------------------------------------- closed-form spectra


def test_closed_spectra_singlet_point():
    spectra = closed_form_spectra(0.5, 0.0, 0.0)
    assert list(spectra) == list(reference_states(np.eye(4) / 4.0, (2, 2)))
    assert spectra["state"] == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)
    assert spectra["mid_state_mixed"] == pytest.approx(
        [0.125, 0.125, 0.125, 0.625], abs=1e-15
    )


def test_closed_spectra_uniform_product_point():
    spectra = closed_form_spectra(0.0, 0.5, 0.5)
    assert spectra["product"] == pytest.approx([0.25] * 4, abs=1e-15)
    assert spectra["mid_product_mixed"] == pytest.approx([0.25] * 4, abs=1e-15)


def test_closed_spectra_q0_nu1_product():
    spectra = closed_form_spectra(1.0 / 3.0, 0.0, 1.0 / 3.0)
    assert spectra["product"] == pytest.approx(
        np.array([1.0, 2.0, 2.0, 4.0]) / 9.0, abs=1e-15
    )


def test_closed_spectra_constraint_violations():
    with pytest.raises(DomainError):
        closed_form_spectra(0.5, 0.5, 0.5)  # sums to 2
    with pytest.raises(DomainError):
        closed_form_spectra(0.6, -0.2, 0.0)


@given(params_strategy)
@example(UNDERFLOW_CORNER)
@settings(max_examples=200, deadline=None)
def test_closed_spectra_sum_to_one_property(point):
    q, nu = point
    spectra = closed_form_spectra(*alpha_beta_gamma(q, nu))
    for _, values in spectra.items():
        assert abs(float(np.sum(values)) - 1.0) <= 1e-12
        assert np.all(np.diff(values) >= 0.0)


@given(params_strategy)
@example(UNDERFLOW_CORNER)
@settings(max_examples=150, deadline=None)
def test_closed_spectra_match_eigensolver_property(point):
    q, nu = point
    params = ModelParams(q=q, nu=nu)
    _, _, gaps = spectra_comparison(params)
    assert max(gaps.values()) <= 1e-10


def test_spectra_comparison_families():
    _, numeric, gaps = spectra_comparison(ModelParams(q=0.3, nu=0.7))
    assert set(numeric) == {
        "state",
        "product",
        "mid_state_mixed",
        "mid_state_product",
        "mid_product_mixed",
    }
    assert max(gaps.values()) <= 1e-10


# ------------------------------------------------------------ coherence paths


def test_closed_form_matches_matrix_path_at_reference_points():
    for q, nu in ((0.0, 0.0), (1.0, 0.1), (0.5, 0.5), (0.0, 1.0), (0.9, 0.05)):
        closed = coherence_closed_form(q, nu)
        matrix = coherence_triple(detector_state(ModelParams(q=q, nu=nu)).state, (2, 2))
        assert float(closed.c_total) == pytest.approx(float(matrix.c_total), abs=1e-9)
        assert float(closed.c_collective) == pytest.approx(
            float(matrix.c_collective), abs=1e-9
        )
        assert float(closed.c_localized) == pytest.approx(
            float(matrix.c_localized), abs=1e-9
        )


@given(params_strategy)
@example(UNDERFLOW_CORNER)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_matrix_path_property(point):
    q, nu = point
    closed = coherence_closed_form(q, nu)
    matrix = coherence_triple(detector_state(ModelParams(q=q, nu=nu)).state, (2, 2))
    gap = max(
        abs(float(closed.c_total) - float(matrix.c_total)),
        abs(float(closed.c_collective) - float(matrix.c_collective)),
        abs(float(closed.c_localized) - float(matrix.c_localized)),
    )
    assert gap <= 1e-9


@pytest.mark.parametrize("q", [0.0, 0.3, 0.77, 0.9, 0.999])
def test_total_coherence_constant_along_zero_coupling(q):
    triple = coherence_closed_form(q, 0.0)
    assert float(triple.c_total) == pytest.approx(SINGLET_COHERENCE, abs=1e-12)
    assert float(triple.c_localized) == 0.0
    assert float(triple.triangle_slack) == 0.0


@pytest.mark.parametrize("nu", [0.05, 0.1, 0.5, 1.0])
def test_localized_vanishes_at_infinite_acceleration(nu):
    triple = coherence_closed_form(1.0, nu)
    assert abs(float(triple.c_localized)) <= 1e-12
    assert abs(float(triple.triangle_slack)) <= 1e-12


def test_batch_closed_form_matches_scalar():
    q = np.array([0.1, 0.5, 0.9])
    nu = np.array([0.2, 0.4, 0.8])
    batch = coherence_closed_form(q, nu)
    for k in range(3):
        single = coherence_closed_form(float(q[k]), float(nu[k]))
        assert float(batch.c_total[k]) == pytest.approx(
            float(single.c_total), abs=1e-15
        )


def test_total_coherence_strictly_positive_at_model_points():
    rng = np.random.default_rng(SEED)
    q = rng.uniform(0.0, 1.0, size=500)
    nu = rng.uniform(0.0, 1.0, size=500)
    triple = coherence_closed_form(q, nu)
    assert float(np.min(triple.c_total)) > 0.0
