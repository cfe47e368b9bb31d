import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from unruh_coherence import (
    CoherenceTriple,
    DimensionError,
    NumericalConsistencyError,
    ValidationError,
    coherence_components,
    coherence_triple,
    divergence_sqrt,
    product_surrogate,
)
from unruh_coherence import coherence
from unruh_coherence.coherence import numeric_spectra, reference_states, sqrt_clipped
from unruh_coherence.linalg import hermitian_eigenvalues

SEED = 20240812

# Frozen reference values, computed with the eigvalsh + explicit-sum
# oracle (tests/oracles.py) before the package existed.
SINGLET_COHERENCE = 0.7408069523805771  # = sqrt(1/8 - (5/8) log2(5/8))
RANK_TWO_COHERENCE = 0.5579230452841439  # diag(1/2,0,0,1/2) vs I/4
LOCALIZED_Q0_NU1 = 0.2021221567246386
COLLECTIVE_Q0_NU1 = 0.5062486242553145


def q0nu1_state():
    # (alpha, beta, gamma) = (1/3, 0, 1/3)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 / 3.0
    rho[1, 1] = rho[2, 2] = rho[1, 2] = rho[2, 1] = 1.0 / 3.0
    return rho


# ------------------------------------------------------------ divergence_sqrt


def test_divergence_of_identical_states_is_zero():
    rng = np.random.default_rng(SEED)
    rho = oracles.random_density(rng, 4)
    assert float(divergence_sqrt(rho, rho)) <= 1e-12


def test_divergence_orthogonal_pure_states():
    assert float(
        divergence_sqrt(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    ) == pytest.approx(1.0, abs=1e-12)


def test_divergence_singlet_vs_mixed_matches_expression():
    got = float(divergence_sqrt(oracles.singlet_state(), np.eye(4) / 4.0))
    assert got == pytest.approx(SINGLET_COHERENCE, abs=1e-12)
    expression = math.sqrt(0.125 - 0.625 * math.log2(0.625))
    assert got == pytest.approx(expression, abs=1e-12)


def test_divergence_dimension_mismatch():
    with pytest.raises(DimensionError):
        divergence_sqrt(np.eye(2) / 2.0, np.eye(4) / 4.0)


def test_divergence_agrees_with_oracle_on_random_pairs():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        a = oracles.random_density(rng, 4)
        b = oracles.random_density(rng, 4)
        assert float(divergence_sqrt(a, b)) == pytest.approx(
            oracles.divergence_ref(a, b), abs=1e-9
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_divergence_symmetric_property(seed):
    rng = np.random.default_rng(seed)
    a = oracles.random_density(rng, 4)
    b = oracles.random_density(rng, 4)
    assert float(divergence_sqrt(a, b)) == pytest.approx(
        float(divergence_sqrt(b, a)), abs=1e-12
    )


def test_sqrt_clipped_policy():
    assert float(sqrt_clipped(-5e-13)) == 0.0
    assert float(sqrt_clipped(0.25)) == 0.5
    with pytest.raises(NumericalConsistencyError):
        sqrt_clipped(-1e-9)


def test_sqrt_clipped_rejects_nan():
    with pytest.raises(NumericalConsistencyError):
        sqrt_clipped([0.25, float("nan")])


# ---------------------------------------------------------- product surrogate


def test_product_surrogate_of_singlet():
    assert np.allclose(
        product_surrogate(oracles.singlet_state(), (2, 2)), np.eye(4) / 4.0
    )


def test_product_surrogate_fixed_point_on_products():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        a = oracles.random_density(rng, 2)
        b = oracles.random_density(rng, 2)
        rho = np.kron(a, b)
        assert np.max(np.abs(product_surrogate(rho, (2, 2)) - rho)) < 1e-12


def test_product_surrogate_diagonal_example():
    pi = product_surrogate(q0nu1_state(), (2, 2))
    assert np.allclose(pi, np.diag([4.0, 2.0, 2.0, 1.0]) / 9.0, atol=1e-12)


def test_product_surrogate_matches_explicit_oracle():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(50):
        rho = oracles.random_density(rng, 4)
        assert np.max(
            np.abs(product_surrogate(rho, (2, 2)) - oracles.product_surrogate_ref(rho, (2, 2)))
        ) < 1e-12


def test_product_surrogate_needs_two_factors():
    with pytest.raises(DimensionError):
        product_surrogate(np.eye(2) / 2.0, (2,))


# ------------------------------------------------------------------- measures


def total(rho):
    return coherence_components(rho, (2, 2))[0]


def collective(rho):
    return coherence_components(rho, (2, 2))[1]


def localized(rho):
    return coherence_components(rho, (2, 2))[2]


def test_total_coherence_of_maximally_mixed_vanishes():
    assert float(total(np.eye(4) / 4.0)) <= 1e-12


def test_total_coherence_of_singlet():
    assert float(total(oracles.singlet_state())) == pytest.approx(
        SINGLET_COHERENCE, abs=1e-12
    )


def test_total_coherence_of_uniform_rank_two():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert float(total(rho)) == pytest.approx(RANK_TWO_COHERENCE, abs=1e-12)


def test_collective_coherence_vanishes_on_product_states():
    rng = np.random.default_rng(SEED + 4)
    rho = np.stack(
        [
            np.kron(oracles.random_density(rng, 2), oracles.random_density(rng, 2))
            for _ in range(30)
        ]
    )
    # the radicand is pure round-off here, so only its square root's
    # magnitude is meaningful
    assert float(np.max(collective(rho))) <= 1e-6


def test_collective_equals_total_for_singlet():
    rho = oracles.singlet_state()
    assert float(collective(rho)) == pytest.approx(float(total(rho)), abs=1e-9)


def test_localized_coherence_examples():
    # the singlet built from a normalized vector has reductions equal to I/2
    # only up to round-off; the square root amplifies the ~1e-16 entropy noise
    # in the radicand to ~1e-8, so the bound here is loose by design
    assert float(localized(oracles.singlet_state())) <= 1e-6
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert float(localized(rho)) <= 1e-9
    assert float(localized(q0nu1_state())) == pytest.approx(
        LOCALIZED_Q0_NU1, abs=1e-12
    )


def test_collective_coherence_q0_nu1():
    assert float(collective(q0nu1_state())) == pytest.approx(
        COLLECTIVE_Q0_NU1, abs=1e-12
    )


def test_triple_packaging_and_slack():
    trip = coherence_triple(q0nu1_state(), (2, 2))
    assert isinstance(trip, CoherenceTriple)
    assert float(trip.triangle_slack) == pytest.approx(
        float(trip.c_collective) + float(trip.c_localized) - float(trip.c_total),
        abs=1e-15,
    )


def test_components_match_individual_measures():
    # each measure against the literal definition on its explicit pair
    rng = np.random.default_rng(SEED + 5)
    rho = np.stack([oracles.random_density(rng, 4) for _ in range(20)])
    product = product_surrogate(rho, (2, 2))
    mixed = np.eye(4) / 4.0
    got = coherence_components(rho, (2, 2))
    expected = (
        divergence_sqrt(rho, mixed),
        divergence_sqrt(rho, product),
        divergence_sqrt(product, mixed),
    )
    for values, reference in zip(got, expected):
        np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_components_of_empty_batch_are_empty(dims):
    dim = math.prod(dims)
    measures = coherence_components(np.zeros((0, dim, dim)), dims)
    assert len(measures) == 3
    for values in measures:
        assert values.shape == (0,)


@pytest.mark.parametrize("trace", [2.0, 0.5])
def test_components_reject_non_unit_trace(trace):
    with pytest.raises(ValidationError, match="trace differs from 1"):
        coherence_components(np.eye(4) * (trace / 4.0), (2, 2))


@pytest.mark.parametrize(
    "rho, dims, error, message",
    [
        (np.triu(np.ones((4, 4))) / 4.0, (2, 2), ValidationError, "not Hermitian"),
        (np.eye(4) / 4.0, (2, 3), DimensionError, "product of factors"),
        (np.eye(4) / 4.0, (4,), DimensionError, "at least two tensor factors"),
    ],
)
def test_components_reject_bad_input(rho, dims, error, message):
    with pytest.raises(error, match=message):
        coherence_components(rho, dims)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2)])
def test_numeric_spectra_match_eigensolver_on_every_family(dims):
    # the derived families (product outer product in kron order, the two
    # mixtures with I/d) against a full solve of each assembled matrix
    rng = np.random.default_rng(SEED + 12)
    batch = np.stack(
        [oracles.random_density(rng, math.prod(dims)) for _ in range(20)]
    )
    spectra = numeric_spectra(batch, dims)
    families = reference_states(batch, dims)
    assert list(spectra) == list(families)
    for name, matrices in families.items():
        np.testing.assert_allclose(
            spectra[name], hermitian_eigenvalues(matrices), rtol=0.0, atol=1e-12
        )


def test_components_solve_two_full_matrices_per_state(monkeypatch):
    solved = []

    def counting(matrix, *args, **kwargs):
        solved.append(np.shape(matrix))
        return hermitian_eigenvalues(matrix, *args, **kwargs)

    monkeypatch.setattr(coherence, "hermitian_eigenvalues", counting)
    rng = np.random.default_rng(SEED + 13)
    n = 7
    batch = np.stack([oracles.random_density(rng, 4) for _ in range(n)])
    coherence_components(batch, (2, 2))
    full = sum(math.prod(shape[:-2]) for shape in solved if shape[-1] == 4)
    assert full == 2 * n


def test_components_batch_matches_scalar():
    rng = np.random.default_rng(SEED + 6)
    batch = np.stack([oracles.random_density(rng, 4) for _ in range(10)])
    total, collective, localized = coherence_components(batch, (2, 2))
    for k in range(10):
        t, c, l = coherence_components(batch[k], (2, 2))
        assert float(total[k]) == pytest.approx(float(t), abs=1e-12)
        assert float(collective[k]) == pytest.approx(float(c), abs=1e-12)
        assert float(localized[k]) == pytest.approx(float(l), abs=1e-12)


def test_measures_bounded_by_one_bit():
    rng = np.random.default_rng(SEED + 7)
    batch = np.stack([oracles.random_density(rng, 4) for _ in range(500)])
    total, collective, localized = coherence_components(batch, (2, 2))
    for values in (total, collective, localized):
        assert float(np.min(values)) >= 0.0
        assert float(np.max(values)) <= 1.0 + 1e-9


def rotate(u, rho):
    return u @ rho @ np.conj(np.swapaxes(u, -1, -2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_measures_basis_independent(dims):
    # All three measures are invariant under the unitaries that keep the
    # tensor split: local U_A (x) U_B (x) ..., and, as a special case, a
    # swap of equal factors.  c_total ignores the split, so it is
    # invariant under every unitary.  The deviations are round-off, at
    # most ~5e-15 on these batches.
    rng = np.random.default_rng(SEED + 8)
    dim = math.prod(dims)
    n = 200
    rho = np.stack([oracles.random_density(rng, dim) for _ in range(n)])
    local = np.stack(
        [reduce(np.kron, [oracles.random_unitary(rng, d) for d in dims]) for _ in range(n)]
    )
    unitary = np.stack([oracles.random_unitary(rng, dim) for _ in range(n)])
    base = np.stack(coherence_components(rho, dims))

    def assert_invariant(got, expected):
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    assert_invariant(np.stack(coherence_components(rotate(local, rho), dims)), base)
    assert_invariant(coherence_components(rotate(unitary, rho), dims)[0], base[0])
    if dims[0] == dims[1]:
        # the permutation |a b ...> -> |b a ...> of the first two factors
        swap = np.eye(dim).reshape(dims + (dim,))
        swap = np.swapaxes(swap, 0, 1).reshape(dim, dim)
        assert_invariant(np.stack(coherence_components(rotate(swap, rho), dims)), base)


def test_triangle_inequality_on_random_states():
    rng = np.random.default_rng(SEED + 9)
    batch = np.stack([oracles.random_density(rng, 4) for _ in range(2000)])
    total, collective, localized = coherence_components(batch, (2, 2))
    slack = collective + localized - total
    assert float(np.min(slack)) >= -1e-9


def test_swap_symmetry():
    rng = np.random.default_rng(SEED + 10)
    rho = np.stack([oracles.random_density(rng, 4) for _ in range(100)])
    a = np.stack(coherence_components(rho, (2, 2)))
    b = np.stack(coherence_components(oracles.swap_qubits(rho), (2, 2)))
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


def test_equal_reductions_force_collective_equals_total():
    # Bell-diagonal states have both reductions maximally mixed
    rng = np.random.default_rng(SEED + 11)
    bells = np.array(
        [
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -1.0],
        ]
    ) / math.sqrt(2.0)
    for _ in range(20):
        w = rng.dirichlet(np.ones(4))
        rho = sum(
            wk * np.outer(v, v).astype(complex) for wk, v in zip(w, bells)
        )
        total, collective, localized = coherence_components(rho, (2, 2))
        # the reductions are maximally mixed only up to round-off in the
        # mixture weights, and sqrt turns ~1e-16 radicand noise into ~1e-8
        assert float(collective) == pytest.approx(float(total), abs=1e-7)
        assert float(localized) <= 1e-6


def test_triple_agrees_with_oracle_route():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(50):
        rho = oracles.random_density(rng, 4)
        got = coherence_triple(rho, (2, 2))
        ref = oracles.triple_ref(rho)
        assert float(got.c_total) == pytest.approx(ref[0], abs=1e-9)
        assert float(got.c_collective) == pytest.approx(ref[1], abs=1e-9)
        assert float(got.c_localized) == pytest.approx(ref[2], abs=1e-9)
