import numpy as np
import pytest

from paulimix.errors import NotPrimePowerError
from paulimix.mub import (
    build_unitaries,
    cached_mub,
    cached_unitaries,
    mub_from_payload,
    verify_mub,
)

PRIME_POWERS_LE_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


@pytest.mark.parametrize("d", PRIME_POWERS_LE_32)
def test_verify_passes_everywhere(d):
    m = cached_mub(d)
    assert m.bases.shape == (d + 1, d, d)
    report = verify_mub(m, tol=1e-12)
    assert report.passed, report
    assert np.array_equal(m.bases[0], np.eye(d))


def test_qubit_unitaries_are_pauli_matrices():
    u = cached_unitaries(2).unitaries
    assert np.allclose(u[0], SZ, atol=1e-14)
    assert np.allclose(u[1], SX, atol=1e-14)
    assert np.allclose(u[2], SY, atol=1e-14)


def test_d3_cross_overlaps_are_one_third():
    m = cached_mub(3)
    for alpha in range(4):
        for beta in range(alpha + 1, 4):
            overlaps = np.abs(m.bases[alpha].conj().T @ m.bases[beta]) ** 2
            assert np.max(np.abs(overlaps - 1 / 3)) < 1e-12


def test_non_prime_power_rejected():
    with pytest.raises(NotPrimePowerError):
        cached_mub(6)


def test_verify_detects_scaled_vector():
    m = cached_mub(5)
    bases = m.bases.copy()
    bases.setflags(write=True)
    bases[1][:, 0] *= 2.0
    broken = type(m)(dim=m.dim, bases=bases)
    report = verify_mub(broken, tol=1e-12)
    assert report.max_orthonormality_deviation > 1.0
    assert not report.passed


def test_verify_detects_duplicate_basis():
    m = cached_mub(3)
    bases = m.bases.copy()
    bases.setflags(write=True)
    bases[1] = bases[0]
    broken = type(m)(dim=m.dim, bases=bases)
    report = verify_mub(broken, tol=1e-12)
    # identical bases overlap with probability 1 instead of 1/d
    assert report.max_unbiasedness_deviation == pytest.approx(1 - 1 / 3, abs=1e-12)
    assert not report.passed


def test_phase_convention_first_nonzero_positive():
    for d in (3, 4, 7, 8):
        m = cached_mub(d)
        for basis in m.bases:
            for j in range(d):
                col = basis[:, j]
                pivot = col[np.flatnonzero(np.abs(col) > 1e-14)[0]]
                assert abs(pivot.imag) < 1e-14 and pivot.real > 0


@pytest.mark.parametrize("d", PRIME_POWERS_LE_32)
def test_unitaries_unitary_with_root_of_unity_spectrum(d):
    u = cached_unitaries(d)
    eye = np.eye(d)
    for U in u.unitaries:
        assert np.max(np.abs(U @ U.conj().T - eye)) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(U, d) - eye)) < 1e-10
        eigs = np.linalg.eigvals(U)
        # each d-th root of unity appears exactly once
        slots = np.mod(np.rint(np.angle(eigs) / (2 * np.pi / d)).astype(int), d)
        assert sorted(slots) == list(range(d))
        assert np.max(np.abs(eigs - u.omega**slots)) < 1e-10


def test_unitary_eigenrelation_d5():
    m = cached_mub(5)
    u = build_unitaries(m)
    for alpha in range(6):
        for j in range(5):
            v = m.bases[alpha][:, j]
            assert np.max(np.abs(u.unitaries[alpha] @ v - u.omega**j * v)) < 1e-12


def test_computational_basis_unitary_is_diagonal_clock():
    u3 = cached_unitaries(3)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(u3.unitaries[0], np.diag([1, w, w**2]), atol=1e-14)
    u2 = cached_unitaries(2)
    assert np.allclose(u2.unitaries[0], np.diag([1, -1]), atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_trace_orthogonality_direct(d):
    u = cached_unitaries(d)
    ops = []
    for alpha in range(d + 1):
        power = np.eye(d, dtype=complex)
        for _ in range(d - 1):
            power = power @ u.unitaries[alpha]
            ops.append(power)
    flat = np.stack([op.reshape(-1) for op in ops])
    gram = flat @ flat.conj().T  # [(alpha,k), (beta,m)] -> tr(U_b^m dag U_a^k)
    expected = d * np.eye(len(ops))
    assert np.max(np.abs(np.abs(gram) - expected)) < 1e-10


@pytest.mark.parametrize("d", PRIME_POWERS_LE_32)
def test_trace_orthogonality_via_gram_structure(d):
    # tr(U_a^k U_b^m dag) = sum_{j,l} w^(jk - lm) |<xi_j^a | xi_l^b>|^2 depends
    # only on the overlap table, which keeps this cheap for every dimension
    m = cached_mub(d)
    w = np.exp(2j * np.pi / d)
    ks = np.arange(1, d)
    phase_pos = w ** np.outer(ks, np.arange(d))  # [k, j]
    for alpha in range(d + 1):
        for beta in range(alpha, d + 1):
            overlap_sq = np.abs(m.bases[alpha].conj().T @ m.bases[beta]) ** 2
            t = phase_pos @ overlap_sq @ phase_pos.conj().T  # [k, m]
            expected = d * np.eye(d - 1) if alpha == beta else np.zeros((d - 1, d - 1))
            assert np.max(np.abs(np.abs(t) - expected)) < 1e-10


def test_payload_roundtrip():
    m = cached_mub(4)
    rebuilt = mub_from_payload(m.to_payload())
    assert rebuilt.dim == m.dim
    assert np.max(np.abs(rebuilt.bases - m.bases)) < 1e-15
