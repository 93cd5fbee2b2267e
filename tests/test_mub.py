import hashlib

import numpy as np
import pytest

from paulimix.errors import NotPrimePowerError, ValidationError
from paulimix.finite_field import factor_prime_power
from paulimix.mub import (
    _MAX_D,
    build_mub,
    cached_mub,
    mub_from_payload,
    verify_mub,
)
from paulimix.oracle import phase_unitaries

PRIME_POWERS_LE_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

# sha256 of the bases' bytes for every prime power d up to the limit of 128,
# recorded before the field layer moved to integer indices
BASIS_SHA256 = {
    2: "b9d9f13c056e51c9795cf0e33dd6ddd1074792360b1236348ab016463bfde4b2",
    3: "a6398970eb42061bb9c40dd693b45e29a0985b2669fc6c6b3e9ada1eea10db2f",
    4: "9aafe28ad723b8a3d2393dbf26e5b13be3f2cfa4b1aa5ca1e7271e3e1bcd6560",
    5: "761ccebdc30bbbb17dd5050f8d2e55cf6b93e5e03e875f9cc59f15aea9301a2d",
    7: "a2aa4145626dbd6afe00404ed153c7361dc50f5b057cb81bcbdf58dba7c5c182",
    8: "43a8ad05e198c423878d02d71aebd2eda4ff1ed6289af044ee1d14e8a239a28f",
    9: "ef80fee18c106d333e4a1d75e4dd1783d70c2a9b9fa2a74fcf126cc11b7c9d7e",
    11: "d5f6fc0399802d20c024f726275a59677d76fbc0f86ddfcf7a68506b7f8eee0f",
    13: "8b4b49d1fefa3dcb4324645799dfeb760eb621425df7058234ab1ec62d9caaab",
    16: "cca0e29361bf2856825d3a9218f575dc5028c51f3002782acee481ebb28bb8ee",
    17: "1464e0a686c6df1db76f4dfdf01627f16fac7a8d4f69afe933d0162c11c4b614",
    19: "5ccd45bf3149bab2a7c4c47c324a853731bcd57897765aab5828224fb6f6c4a6",
    23: "b17a7b09e713fea001c84002929006a3b2e2c4900308c66e78db928524d3fbd0",
    25: "9b41db0be0e69dcc83db0c0b8d2263eefca837b9a441c54d6267976a4ef7fde8",
    27: "088f7ad3743775e2469ff566d5f376908d2d00e68e167165457bfdb19e119d85",
    29: "134b4bc7134475bc95fcc469881e48cb6f95550796c73a8dc447fdd8818d8dfd",
    31: "79cb410917dbce5985474f8e017e7519569a2487dc9f2117ce7b87e8b0cd7e26",
    32: "1e5d52230ea2d1df9a2105cd167b4024f91d72fa47d311131db8479d54c7edf0",
    37: "4e8813dd51ae03442090df6005c6598d7fce2aa328803a449f1ec8b5f01a935f",
    41: "db272966474ad010180b355906ed62f850d6bf8d53a01616a96666ebdb83333f",
    43: "d9fb1c28895ba7c36ff0063e31101b00c421b90f9b22689c9838d3e5b3874908",
    47: "82d5d1236dfbe4fbbffcd70a0ff9a08a3b68460137d0ec81282a34f0adae3ea3",
    49: "d8f91773536441c4aac0e726f37fb4835d6a8bc4b72e4624057db75c9c191237",
    53: "f66a4fde85a6c0661038bcd0cf42f6861521008537d915954d073b3df141c882",
    59: "34e7496c191bf2c6a19cfbbd53759cde2a812be391d753f271d4fc777801b77b",
    61: "4537480cbd71f4e9d19eaaef41d0a0614956932fbb037e5c354b6ce161531542",
    64: "f1474cc1f750d5bf0cef1b859943e8f85c616a08bcb564475d900008d864bcc6",
    67: "6da0556bfc9c725831b44f216ed967509a07083f9ef2a665e211c6da715f9837",
    71: "0bd114ed545515042ef4ffc6cabc884cc3dbd99bddc707285386ce75c5c0f689",
    73: "6e96399b4d5defbd8c49efd428ac9e7d332f1682ef89d13bfb903f545a997bce",
    79: "ac66f54103869d1822cb6f469c1b907d7eecb228fca22260cf72c82df9dcb755",
    81: "55e5a7270662530a4bdb66423ab1e958118e83903c9eb6ad9270e2053d1fabda",
    83: "90fea9f7d69ed93bf1bec9fe7529cd163caeb88975266e8187f16bee61ea3147",
    89: "5bdaada4ed1ea35b45e390db27171cd16282e900dee2584fb98c9607aab86cfe",
    97: "75bdb29739c54f38250c829ddf44ae3d9988d1f3b60d13efb86ebbfd21e3690b",
    101: "f993f4e6ca2152edf17f49d7db7eb2abe13abbf066f0142a5a3ae52a29276bc7",
    103: "ef19b8b0440f2a6951e293e8b34671d04fdce9490b1a8657774f85a064f7e3ad",
    107: "b4307d892f16af8b690e92beac63160a286f96b36e8e4af4f3cc056168556ba7",
    109: "c21f9e17d05267f202b9149b070d4fb1fd756246830f306e3a8c0987a752d728",
    113: "32721cb2d906d220f4816027db0551273f7a396994c97a1135a042f7fcbec3ad",
    121: "9f801a4868365d8021b6a743457c8afb944d38a275bc537eb188d8eec1ecb07e",
    125: "7b00d32dfc75d1512b5672b243cf77fc8ef8b9d92aee5ce8ec57517912bb1af9",
    127: "2ef76d036604d38f6e21edb62a6ca6edaff6fa33ee0938c661cafb41c44e9e72",
    128: "2186c23e4b131fd98e90704d13ad3dc50c4294ffef559f5736182b2cf1d7441d",
}


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
    u = phase_unitaries(2)
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
    u = phase_unitaries(d)
    omega = np.exp(2j * np.pi / d)
    eye = np.eye(d)
    for U in u:
        assert np.max(np.abs(U @ U.conj().T - eye)) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(U, d) - eye)) < 1e-10
        eigs = np.linalg.eigvals(U)
        # each d-th root of unity appears exactly once
        slots = np.mod(np.rint(np.angle(eigs) / (2 * np.pi / d)).astype(int), d)
        assert sorted(slots) == list(range(d))
        assert np.max(np.abs(eigs - omega**slots)) < 1e-10


def test_unitary_eigenrelation_d5():
    m = cached_mub(5)
    u = phase_unitaries(5)
    omega = np.exp(2j * np.pi / 5)
    for alpha in range(6):
        for j in range(5):
            v = m.bases[alpha][:, j]
            assert np.max(np.abs(u[alpha] @ v - omega**j * v)) < 1e-12


def test_computational_basis_unitary_is_diagonal_clock():
    u3 = phase_unitaries(3)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(u3[0], np.diag([1, w, w**2]), atol=1e-14)
    u2 = phase_unitaries(2)
    assert np.allclose(u2[0], np.diag([1, -1]), atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_trace_orthogonality_direct(d):
    u = phase_unitaries(d)
    ops = []
    for alpha in range(d + 1):
        power = np.eye(d, dtype=complex)
        for _ in range(d - 1):
            power = power @ u[alpha]
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


@pytest.mark.parametrize("d", BASIS_SHA256)
def test_bases_are_pinned_bit_for_bit(d):
    # cached_mub(d) caches build_mub(factor_prime_power(d)); building it uncached
    # keeps the test process from holding every basis set up to d = 128 (0.3 GB)
    bases = build_mub(factor_prime_power(d)).bases
    assert hashlib.sha256(bases.tobytes()).hexdigest() == BASIS_SHA256[d]


def test_the_pins_reach_the_limit():
    assert max(BASIS_SHA256) == _MAX_D
    with pytest.raises(ValidationError, match=f"limited to d <= {_MAX_D}, got d=131"):
        build_mub(factor_prime_power(131))
