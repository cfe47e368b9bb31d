import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from unruh_coherence import (
    DimensionError,
    DomainError,
    PositivityError,
    ValidationError,
    alpha_beta_gamma,
    detector_matrix,
    equal_mixture,
    hermitian_eigenvalues,
    maximally_mixed,
    partial_trace,
    spectrum_entropy,
    tensor_product,
)
from unruh_coherence import linalg

SEED = 20240811


# ---------------------------------------------------------------- eigenvalues


def test_rank_one_block():
    m = np.array([[0.3, 0.3], [0.3, 0.3]])
    assert hermitian_eigenvalues(m) == pytest.approx([0.0, 0.6], abs=1e-14)


@pytest.mark.parametrize("scale", [1e-14, 1e-300])
def test_rank_one_block_keeps_relative_accuracy_at_small_scale(scale):
    # the stopping test is relative to the diagonal, so a matrix whose
    # entries are all tiny is still rotated
    m = scale * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert hermitian_eigenvalues(m) == pytest.approx([0.0, 2.0 * scale], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
def test_eigenvalues_match_char_poly_oracle(dim):
    rng = np.random.default_rng(SEED + dim)
    for _ in range(40):
        h = oracles.random_hermitian(rng, dim)
        got = hermitian_eigenvalues(h)
        ref = oracles.char_poly_eigenvalues(h)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_eigenvalues_match_char_poly_on_densities():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        rho = oracles.random_density(rng, 4)
        got = hermitian_eigenvalues(rho)
        ref = oracles.char_poly_eigenvalues(rho)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_characteristic_invariants_reconstructed():
    # trace and trace of the square are recovered from the spectrum
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        h = oracles.random_hermitian(rng, 4)
        w = hermitian_eigenvalues(h)
        assert np.sum(w) == pytest.approx(np.trace(h).real, abs=1e-10)
        assert np.sum(w**2) == pytest.approx(np.trace(h @ h).real, abs=1e-10)


def test_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(SEED + 2)
    h = oracles.random_hermitian(rng, 6)
    w = hermitian_eigenvalues(h)
    assert np.all(np.diff(w) >= 0.0)


def test_batched_eigenvalues_match_loop():
    rng = np.random.default_rng(SEED + 3)
    batch = np.stack([oracles.random_hermitian(rng, 4) for _ in range(25)])
    together = hermitian_eigenvalues(batch)
    for k in range(25):
        single = hermitian_eigenvalues(batch[k])
        assert np.max(np.abs(together[k] - single)) < 1e-12


def _x_state(rng, dim):
    """Hermitian matrix supported on the diagonal and anti-diagonal."""
    m = np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex)
    for k in range(dim // 2):
        m[k, dim - 1 - k] = complex(*rng.normal(size=2))
        m[dim - 1 - k, k] = np.conj(m[k, dim - 1 - k])
    return m


def _mixed_batch(rng, dim):
    """Dense Ginibre states, X-states and real symmetric matrices."""
    dense = [oracles.random_density(rng, dim) for _ in range(6)]
    x_states = [_x_state(rng, dim) for _ in range(6)]
    real = [oracles.random_hermitian(rng, dim).real for _ in range(6)]
    if dim == 4:
        q = rng.uniform(0.0, 0.99, 6)
        x_states += list(detector_matrix(*alpha_beta_gamma(q, rng.uniform(0.0, 1.0, 6))))
    return np.stack(dense + x_states + real)


def test_unconverged_result_refused(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(SEED + 13)
    with pytest.raises(ValidationError, match="did not converge"):
        hermitian_eigenvalues(oracles.random_hermitian(rng, 4))


@pytest.mark.parametrize("dim", range(2, 9))
def test_mixed_batch_matches_char_poly_oracle(dim):
    rng = np.random.default_rng(SEED + 20 + dim)
    batch = _mixed_batch(rng, dim)
    got = hermitian_eigenvalues(batch)
    for k, m in enumerate(batch):
        assert np.max(np.abs(got[k] - oracles.char_poly_eigenvalues(m))) < 1e-10


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_eigenvalues_independent_of_batch(dim):
    rng = np.random.default_rng(SEED + 30 + dim)
    batch = _mixed_batch(rng, dim)
    singles = np.stack([hermitian_eigenvalues(m) for m in batch])
    assert np.array_equal(hermitian_eigenvalues(batch), singles)
    assert np.array_equal(hermitian_eigenvalues(batch[::-1]), singles[::-1])


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_eigenvalues_independent_of_block_size(dim, monkeypatch):
    rng = np.random.default_rng(SEED + 40 + dim)
    batch = _mixed_batch(rng, dim)
    default = hermitian_eigenvalues(batch)
    monkeypatch.setattr(linalg, "_BLOCK", 3)
    assert np.array_equal(hermitian_eigenvalues(batch), default)


def test_batch_of_several_default_blocks_matches_single_solves():
    rng = np.random.default_rng(SEED + 50)
    base = _mixed_batch(rng, 4)
    # the period of the tiling does not divide the block size, so every
    # block starts at a different matrix of `base`
    assert linalg._BLOCK % len(base)
    index = np.arange(2 * linalg._BLOCK + 7) % len(base)
    singles = np.stack([hermitian_eigenvalues(m) for m in base])
    assert np.array_equal(hermitian_eigenvalues(base[index]), singles[index])


def test_non_hermitian_matrix_in_a_later_block_rejected(monkeypatch):
    monkeypatch.setattr(linalg, "_BLOCK", 3)
    # the first block alone would fail to converge: no block may be
    # solved before every block has passed the hermiticity check
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(SEED + 60)
    batch = np.stack([oracles.random_hermitian(rng, 4) for _ in range(10)])
    batch[1, 0, 1] += 1e-3
    batch[7, 2, 3] += 0.25
    with pytest.raises(ValidationError, match=r"not Hermitian \(defect 2\.500e-01\)"):
        hermitian_eigenvalues(batch)


def test_subnormal_offdiagonal_entry():
    tiny = 1e-310 + 1e-310j
    m = np.array([[1.0, tiny, 0.5], [np.conj(tiny), 0.0, 0.0], [0.5, 0.0, 2.0]])
    got = hermitian_eigenvalues(m)
    assert np.max(np.abs(got - oracles.char_poly_eigenvalues(m))) < 1e-12


@pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 2, 2)])
def test_empty_batch(shape):
    values = hermitian_eigenvalues(np.zeros(shape))
    assert values.shape == shape[:-1]
    assert linalg.check_unit_trace(values) is values
    assert spectrum_entropy(values).shape == shape[:-2]


def test_diagonal_input_is_exact():
    w = hermitian_eigenvalues(np.diag([0.7, 0.1, 0.0, 0.2]).astype(complex))
    assert list(w) == [0.0, 0.1, 0.2, 0.7]


def test_degenerate_spectrum():
    assert hermitian_eigenvalues(np.eye(4) * 0.25) == pytest.approx([0.25] * 4)


def test_complex_offdiagonal_phases():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(20):
        h = oracles.random_hermitian(rng, 4) * 1j
        h = h @ h.conj().T  # positive, strongly complex
        h = 0.5 * (h + h.conj().T)
        assert np.max(
            np.abs(hermitian_eigenvalues(h) - oracles.char_poly_eigenvalues(h))
        ) < 1e-9


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(bad)


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_non_finite_rejected():
    m = np.eye(2)
    m[0, 0] = np.nan
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(m)


# -------------------------------------------------------------------- entropy


def test_entropy_maximally_mixed_is_two_bits():
    assert spectrum_entropy(hermitian_eigenvalues(np.eye(4) / 4.0)) == 2.0


def test_entropy_pure_state_is_zero():
    values = hermitian_eigenvalues(oracles.singlet_state())
    assert spectrum_entropy(values) == pytest.approx(0.0, abs=1e-12)


def test_entropy_uniform_rank_two():
    values = hermitian_eigenvalues(np.diag([0.5, 0.0, 0.0, 0.5]))
    assert spectrum_entropy(values) == pytest.approx(1.0, abs=1e-12)


def test_entropy_agrees_with_eigvalsh_oracle():
    rng = np.random.default_rng(SEED + 5)
    for dim in (2, 3, 4, 8):
        for _ in range(50):
            rho = oracles.random_density(rng, dim)
            assert spectrum_entropy(hermitian_eigenvalues(rho)) == pytest.approx(
                oracles.entropy_bits(rho), abs=1e-9
            )


def test_entropy_unitarily_invariant():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(100):
        rho = oracles.random_density(rng, 4)
        u = oracles.random_unitary(rng, 4)
        rotated = u @ rho @ u.conj().T
        assert spectrum_entropy(hermitian_eigenvalues(rotated)) == pytest.approx(
            spectrum_entropy(hermitian_eigenvalues(rho)), abs=1e-9
        )


def test_entropy_bounds():
    rng = np.random.default_rng(SEED + 7)
    for dim in (2, 4):
        for _ in range(100):
            rho = oracles.random_density(rng, dim)
            s = float(spectrum_entropy(hermitian_eigenvalues(rho)))
            assert -1e-9 <= s <= np.log2(dim) + 1e-9


def test_spectrum_entropy_clips_roundoff_negatives():
    assert spectrum_entropy([1.0, -5e-13, 0.0]) == pytest.approx(0.0, abs=1e-10)


def test_spectrum_entropy_rejects_genuine_negatives():
    with pytest.raises(PositivityError):
        spectrum_entropy([1.0, -1e-11])
    with pytest.raises(PositivityError):
        spectrum_entropy([1.1, -0.1])


def test_spectrum_entropy_rejects_nan():
    with pytest.raises(PositivityError):
        spectrum_entropy([0.5, float("nan"), 0.5])


def test_entropy_trace_check():
    with pytest.raises(ValidationError):
        linalg.check_unit_trace(hermitian_eigenvalues(np.eye(4)))  # trace 4


def test_unit_trace_check_rejects_nan():
    with pytest.raises(ValidationError, match="trace differs from 1 by nan"):
        linalg.check_unit_trace(np.array([np.nan, 0.5]))


@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_spectrum_entropy_bounds_property(raw):
    w = np.asarray(raw) / np.sum(raw)
    s = float(spectrum_entropy(w))
    assert -1e-12 <= s <= np.log2(len(raw)) + 1e-12


# ------------------------------------------------------- tensor ops, mixtures


def test_tensor_product_identities():
    got = tensor_product(np.eye(2) / 2.0, np.eye(2) / 2.0)
    assert np.allclose(got, np.eye(4) / 4.0)
    got = tensor_product(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert np.allclose(got, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_tensor_product_weighted_diagonals():
    got = tensor_product(np.diag([0.6, 0.4]), np.diag([0.7, 0.3]))
    assert np.allclose(got, np.diag([0.42, 0.18, 0.28, 0.12]))


def test_tensor_product_matches_kron():
    rng = np.random.default_rng(SEED + 8)
    for da, db in ((2, 2), (2, 3), (3, 4)):
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        assert np.allclose(tensor_product(a, b), np.kron(a, b))


def test_tensor_product_rejects_non_square():
    with pytest.raises(DimensionError):
        tensor_product(np.zeros((2, 3)), np.eye(2))


def test_partial_trace_of_singlet_is_maximally_mixed():
    rho = oracles.singlet_state()
    for keep in (0, 1):
        assert np.allclose(partial_trace(rho, keep, (2, 2)), np.eye(2) / 2.0)


def test_partial_trace_matches_explicit_summation():
    rng = np.random.default_rng(SEED + 9)
    for dims in ((2, 2), (2, 4), (4, 2), (2, 2, 2)):
        total = int(np.prod(dims))
        rho = oracles.random_density(rng, total)
        for keep in range(len(dims)):
            got = partial_trace(rho, keep, dims)
            ref = oracles.reduce_explicit(rho, keep, dims)
            assert np.max(np.abs(got - ref)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(SEED + 10)
    rho = oracles.random_density(rng, 4)
    for keep in (0, 1):
        assert np.trace(partial_trace(rho, keep, (2, 2))).real == pytest.approx(
            1.0, abs=1e-12
        )


def test_partial_trace_dimension_checks():
    rho = np.eye(4) / 4.0
    with pytest.raises(DimensionError):
        partial_trace(rho, 0, (2, 3))
    with pytest.raises(DimensionError):
        partial_trace(rho, 2, (2, 2))


def test_equal_mixture_idempotent_and_symmetric():
    rng = np.random.default_rng(SEED + 11)
    rho = oracles.random_density(rng, 4)
    assert np.allclose(equal_mixture(rho, rho), rho)
    assert np.allclose(
        equal_mixture(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.eye(2) / 2.0
    )


def test_equal_mixture_singlet_with_mixed_spectrum():
    mid = equal_mixture(oracles.singlet_state(), np.eye(4) / 4.0)
    assert hermitian_eigenvalues(mid) == pytest.approx(
        [0.125, 0.125, 0.125, 0.625], abs=1e-12
    )


def test_equal_mixture_dimension_mismatch():
    with pytest.raises(DimensionError):
        equal_mixture(np.eye(2), np.eye(4))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_maximally_mixed(dim):
    m = maximally_mixed(dim)
    assert np.allclose(m, np.eye(dim) / dim)


def test_maximally_mixed_rejects_bad_dimension():
    with pytest.raises(DomainError):
        maximally_mixed(0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_eigenvalue_sum_equals_trace_property(seed):
    rng = np.random.default_rng(seed)
    h = oracles.random_hermitian(rng, 4)
    assert float(np.sum(hermitian_eigenvalues(h))) == pytest.approx(
        float(np.trace(h).real), abs=1e-10
    )
