import hashlib
import math
import random

import numpy as np
import pytest

from paulimix.errors import NotPrimePowerError, ValidationError
from paulimix.finite_field import (
    PrimePowerDim,
    _digits,
    _poly_mod,
    _poly_mul,
    _power_traces,
    factor_prime_power,
    galois_field,
)
from paulimix.mub import (
    _MAX_D,
    MubSet,
    _phase_row,
    build_mub,
    cached_mub,
    mub_from_payload,
    verify_mub,
)
from paulimix.oracle import phase_unitaries
from paulimix.serialization import dumps_canonical

PRIME_POWERS_LE_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

# sha256 of the bases' bytes for every prime power d up to the limit of 128,
# recorded before the field layer moved to integer indices; 29 and 73 since
# the phase pass, which put every amplitude of bases 1..d one ulp low there, went
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
    29: "f416c66fce56bd4edff882013017a0faec46e3703fbbbce904242777b4e5410f",
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
    73: "699ee3716da10bf2cba487d8130332ac0b7b4c9d3708c3a59443d7f6f2d7236f",
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


def _sampled_vectors(d):
    """Every (alpha, j) with alpha >= 1 up to d = 9; above it the two corners and 20 drawn at random."""
    if d <= 9:
        return [(alpha, j) for alpha in range(1, d + 1) for j in range(d)]
    rng = random.Random(d)
    return [(1, 0), (d, d - 1)] + [(rng.randrange(1, d + 1), rng.randrange(d)) for _ in range(20)]


@pytest.mark.parametrize("d", PRIME_POWERS_LE_32)
def test_the_pure_python_phase_row_is_the_exponent_of_each_basis_vector(d):
    bases, dim = cached_mub(d).bases, factor_prime_power(d)
    for alpha, j in _sampled_vectors(d):
        m, row = _phase_row(dim, alpha, j)
        assert m == (4 if dim.p == 2 else dim.p)
        # the amplitudes are w^k/sqrt(d), with angles 2 pi/m apart, so rounding recovers k exactly
        k = np.rint(np.angle(bases[alpha][:, j] * math.sqrt(d)) * m / (2 * np.pi)).astype(int) % m
        assert row == k.tolist(), (alpha, j)


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


# --- the two constructions that _phase_bases replaced, kept as references ----------


def _odd_prime_power_bases(dim: PrimePowerDim) -> np.ndarray:
    p, k, q = dim.p, dim.k, dim.q
    field = galois_field(p, k)

    # tr(a s^2 + b s) = tr(a s^2) + tr(b s), so the q^3 amplitude exponents
    # are numpy gathers from the multiplication table and the trace vector
    mul_idx = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    trace_vec = np.array([field.trace(a) for a in range(q)], dtype=np.int64)
    square_idx = mul_idx.diagonal()
    tr_bs = trace_vec[mul_idx]  # [s, b] -> tr(b s)

    roots = np.exp(2j * np.pi * np.arange(p) / p)
    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    for a in range(q):
        tr_as2 = trace_vec[mul_idx[a, square_idx]]  # [s] -> tr(a s^2)
        bases[a + 1] = roots[(tr_as2[:, None] + tr_bs) % p] / np.sqrt(q)
    return bases


def _even_prime_power_bases(dim: PrimePowerDim) -> np.ndarray:
    """Quartic phases over the Galois ring GR(4, k) = Z4[x]/(f).

    f is the GF(2) modulus read mod 4: it is irreducible mod 2, so it lifts
    to GR(4, k).
    """
    k, q = dim.k, dim.q
    modulus = galois_field(2, k).modulus

    # Teichmuller lift t = r^(2^k) of each binary representative r; entry i
    # reduces mod 2 to the field element with index i
    lifts = []
    for i in range(q):
        t = _digits(i, 2, k)
        for _ in range(k):
            t = _poly_mod(_poly_mul(t, t, 4), modulus, 4)
        lifts.append(t + (0,) * (k - len(t)))

    # the trace is Z4-linear, so tr(s * x) = s^T M x with
    # M[i, j] = tr(x^(i+j)); one integer matrix product covers all triples
    tr_mono = _power_traces(modulus, 4, 2 * k - 1)
    tmat = np.array([[tr_mono[i + j] for j in range(k)] for i in range(k)], dtype=np.int64)

    tvecs = np.array(lifts, dtype=np.int64)  # (q, k)
    quartic_roots = np.array([1, 1j, -1, -1j], dtype=complex) + 0.0  # no -0.0 real part
    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    for ia in range(q):
        phases = (tvecs[ia][None, :] + 2 * tvecs) % 4  # (q, k), row b -> a + 2b
        expo = (phases @ tmat @ tvecs.T) % 4  # (q_b, q_x)
        bases[ia + 1] = quartic_roots[expo].T / np.sqrt(q)
    return bases


def _reference_mub(dim: PrimePowerDim):
    old = _even_prime_power_bases(dim) if dim.p == 2 else _odd_prime_power_bases(dim)
    return MubSet(dim=dim, bases=old)


@pytest.mark.parametrize("d", BASIS_SHA256)
def test_one_construction_equals_the_two_references_bit_for_bit(d):
    dim = factor_prime_power(d)
    new, old = build_mub(dim).bases, _reference_mub(dim).bases
    assert np.array_equal(new, old)
    for part in ("real", "imag"):  # array_equal takes -0.0 for 0.0
        assert np.array_equal(np.signbit(getattr(new, part)), np.signbit(getattr(old, part)))


@pytest.mark.parametrize("d", PRIME_POWERS_LE_32)
def test_one_construction_keeps_the_payloads(d):
    dim = factor_prime_power(d)
    new, old = build_mub(dim), _reference_mub(dim)
    assert dumps_canonical(new.to_payload()) == dumps_canonical(old.to_payload())
    assert dumps_canonical(verify_mub(new).to_payload()) == dumps_canonical(verify_mub(old).to_payload())


@pytest.mark.parametrize("d", BASIS_SHA256)
def test_first_entry_of_every_phase_basis_is_exactly_one_over_sqrt_d(d):
    # x = 0 gives exponent 0 in every basis, so no phase pass is needed
    bases = build_mub(factor_prime_power(d)).bases
    assert np.all(bases[1:, 0, :] == 1 / np.sqrt(d))
