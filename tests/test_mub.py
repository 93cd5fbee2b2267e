import hashlib
import math
import random

import numpy as np
import pytest

from paulimix import mub as mub_mod
from paulimix.cli import _initial_state
from paulimix.dynmaps import Plateau, mixture_map
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
    _character_deviations,
    _direct_sums,
    _phase_bases,
    _roots,
    _trace_form,
    basis_state,
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
# the phase pass, which put every amplitude of bases 1..d one ulp low there, went;
# the odd primes whose roots math.cos/math.sin round otherwise than numpy's
# vectorized exp since the bases read w^r from the one root table, mub._roots
BASIS_SHA256 = {
    2: "b9d9f13c056e51c9795cf0e33dd6ddd1074792360b1236348ab016463bfde4b2",
    3: "a6398970eb42061bb9c40dd693b45e29a0985b2669fc6c6b3e9ada1eea10db2f",
    4: "9aafe28ad723b8a3d2393dbf26e5b13be3f2cfa4b1aa5ca1e7271e3e1bcd6560",
    5: "761ccebdc30bbbb17dd5050f8d2e55cf6b93e5e03e875f9cc59f15aea9301a2d",
    7: "a2aa4145626dbd6afe00404ed153c7361dc50f5b057cb81bcbdf58dba7c5c182",
    8: "43a8ad05e198c423878d02d71aebd2eda4ff1ed6289af044ee1d14e8a239a28f",
    9: "ef80fee18c106d333e4a1d75e4dd1783d70c2a9b9fa2a74fcf126cc11b7c9d7e",
    11: "3db96c41fec2b7f90ef756d5d6d291dea2dba7081af8c45c895b251ab95ded15",
    13: "2ab7f8941b4b173c74eaa643fa619ccaee0f33a1a7fd317a0f0e64e103ea7176",
    16: "cca0e29361bf2856825d3a9218f575dc5028c51f3002782acee481ebb28bb8ee",
    17: "ff33e0fddb1a931d023a1e4f6d0f2f15f6aeb00ac67034347f8bd4ef5b7b1b8d",
    19: "fc92ec984e4b9d6f1d936c75b08f4fc9abfe5cb9d21ec95435f9bdf20269771e",
    23: "c82c5d00b597d41bab194fe42569c8eb07983eaf2b626b1dc319ab8c707db25e",
    25: "9b41db0be0e69dcc83db0c0b8d2263eefca837b9a441c54d6267976a4ef7fde8",
    27: "088f7ad3743775e2469ff566d5f376908d2d00e68e167165457bfdb19e119d85",
    29: "d57c5f9c54db7a2890dd6c6ae5a4221c83018c2b152fb5004efb6ea20d374ffb",
    31: "886cef73481c9eaf08010bcdecb1c7f875f43d7637a690c39f3aab6f68e518f4",
    32: "1e5d52230ea2d1df9a2105cd167b4024f91d72fa47d311131db8479d54c7edf0",
    37: "8ea829578f90ea2f148fe56ac4c145ae80948a7faf6dbf305b65aa9c2351c3ef",
    41: "026269a81c3167571c958548186cc4ce381e2065180fbdc05c672dcd65002467",
    43: "e834e3952dd996c3a96d765c6dc98e24f01daba6fbaf40937ccfd9f832c4de61",
    47: "97fbed3c30e4d581935513e7edf6cf1e22daf52ff8d9fcf2eb765b231d68cbd3",
    49: "d8f91773536441c4aac0e726f37fb4835d6a8bc4b72e4624057db75c9c191237",
    53: "cd10ef98f209b27b990a3716a9150d70c248dbdaac74cb20376978a9274d2504",
    59: "2e8a0306fe0303cc2c517ac59380f03b444df7c636ee9a3be8a38a4b8e811f23",
    61: "25aa84cb9473f46e46a9fab1d1d452c51488ce30d73a24c34894f1e8a9ea2f42",
    64: "f1474cc1f750d5bf0cef1b859943e8f85c616a08bcb564475d900008d864bcc6",
    67: "eab7fb34365ba1d922a37b5b25789cebf7c35b10009560795ae40667952b8330",
    71: "d84d4f748ee304fe3c221947803ed792c16e39c7e641acd1fa33c577659c44f6",
    73: "29d376c32784c946d5d4e8980e6c93780d9f469034851a12b44a6c05722aee7f",
    79: "8d341fe46dd4483d101736a96e89951f1d1761dc002957c2f05d915a1353e42f",
    81: "55e5a7270662530a4bdb66423ab1e958118e83903c9eb6ad9270e2053d1fabda",
    83: "f664d356bac115faaf32963ea2ba76f57c3a2f2475dfb3577127d339b1b96b3e",
    89: "fa17ba5d49da33735183e601ddfd1b736c11081445d6cc0cd7f0b1d15ab40a5d",
    97: "7cce4e5566df90e79037c2eeb8366065ebc9ce755eb4c6b2c76ebed3b91e8814",
    101: "666aa3b26fda426849fc91deb48b9391a7ff43ba446d22495db8e8839cc40df3",
    103: "0bf6bcaae016bc39d278c4e0b6bc50741fa08bc67cd846af5819e0e4867a958b",
    107: "6b203299b6ebf6aa804eb53f5df82bcb3c5587b2774761843c3bf35effb2bd1d",
    109: "7ae92f9c5991ec4b1094d9c31c321e50de681b2137be593788a5ac0df30fbf62",
    113: "0558e65291d6e4ea8e0b6b12370a29316f529ce1d8a10f98f898cfa7158f5839",
    121: "a65e7c83c0ec163583f9ed15c82dcaa870313590c4b2e2f24b5357951ccf145a",
    125: "7b00d32dfc75d1512b5672b243cf77fc8ef8b9d92aee5ce8ec57517912bb1af9",
    127: "6aac02a2a8ab535d082853089c4c74d9a528be91b9766fd6243ececb5172cc1a",
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


@pytest.mark.parametrize("d", PRIME_POWERS_LE_32 + [127, 128])
def test_the_pure_python_phase_row_is_the_exponent_of_each_basis_vector(d):
    dim = factor_prime_power(d)
    bases, m = build_mub(dim).bases, 4 if dim.p == 2 else dim.p
    roots = _roots(m)
    for alpha, j in [(0, 0), (0, d - 1)] + _sampled_vectors(d):
        v = bases[alpha][:, j]
        state = basis_state(dim, alpha, j)
        assert np.allclose(np.array(state) @ [1, 1j], np.outer(v, v.conj()), rtol=0, atol=1e-15), (alpha, j)
        if alpha:
            # the amplitudes are w^k/sqrt(d), with angles 2 pi/m apart, so rounding recovers k exactly;
            # row 0 is v[0] v[y]^* = w^-k[y]/d, since k[0] = 0
            k = np.rint(np.angle(v * math.sqrt(d)) * m / (2 * np.pi)).astype(int) % m
            assert state[0] == [[roots[-r % m].real / d, roots[-r % m].imag / d] for r in k], (alpha, j)


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


@pytest.mark.parametrize("bad", ["one NaN", "all NaN", "one inf"])
def test_a_basis_array_with_a_non_finite_entry_is_refused_and_fails(bad):
    dim = factor_prime_power(2)
    bases = build_mub(dim).bases.copy()
    if bad == "all NaN":
        bases[:] = complex(math.nan, math.nan)
    else:
        bases[1][0, 1] = math.nan if bad == "one NaN" else math.inf
    floats = MubSet(dim=dim, bases=bases)
    with pytest.raises(ValidationError, match="must be finite"):
        mub_from_payload(floats.to_payload())
    report = verify_mub(floats)
    assert not report.passed
    assert report.max_orthonormality_deviation == report.max_unbiasedness_deviation == math.inf


def test_a_basis_file_whose_products_overflow_fails_with_infinite_deviations():
    # finite entries, so the file is read; its Gram products overflow to inf and on to NaN, reported as inf
    dim = factor_prime_power(2)
    bases = build_mub(dim).bases * 1e200
    report = verify_mub(mub_from_payload(MubSet(dim=dim, bases=bases).to_payload()))
    assert not report.passed
    assert report.max_orthonormality_deviation == report.max_unbiasedness_deviation == math.inf


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



def test_the_root_table_is_exact_for_quarter_roots_and_cos_sin_otherwise():
    quarter = _roots(4)
    assert quarter == [1, 1j, -1, -1j]
    assert not any(math.copysign(1.0, part) < 0 for r in quarter for part in (r.real, r.imag) if part == 0)
    for m in (3, 11, 127):
        assert _roots(m) == [complex(math.cos(2 * math.pi * r / m), math.sin(2 * math.pi * r / m)) for r in range(m)]


@pytest.mark.parametrize("d", [4, 11, 13, 127])
def test_the_bases_and_a_mub_state_read_one_root_table(d):
    # numpy's vectorized exp rounds some roots of 11, 13 and 127 otherwise than math.cos/math.sin
    dim = factor_prime_power(d)
    bases = build_mub(dim).bases
    m, c, labels, u, w = _trace_form(dim)
    roots = _roots(m)
    mixture = mixture_map(d, [1 / (d + 1)] * (d + 1), Plateau(t_sharp=1.0))
    for alpha, j in _sampled_vectors(d):
        a, b = labels[alpha - 1], labels[j]
        k = [(np.dot(a, wx) + c * np.dot(b, ux)) % m for ux, wx in zip(u, w)]
        assert np.array_equal(bases[alpha][:, j], np.array(roots)[k] / np.sqrt(d))
        rho0, _ = _initial_state(f"mub:{alpha}:{j}", mixture)
        assert [row[0] for row in rho0] == [[roots[r].real / d, roots[r].imag / d] for r in k]  # k[0] = 0


# --- verify_mub from the tables: character sums against the Gram products ----------


@pytest.mark.parametrize("d", [d for d in BASIS_SHA256 if d <= 64] + [127, 128])
def test_the_character_route_agrees_with_the_gram_route(d):
    built = build_mub(factor_prime_power(d))
    by_tables = verify_mub(built)
    by_gram = verify_mub(MubSet(dim=built.dim, bases=built.bases))
    assert by_tables.passed and by_gram.passed
    assert by_tables.max_orthonormality_deviation <= 1e-15
    assert by_tables.max_unbiasedness_deviation <= 1e-15
    # a Gram entry adds d products of size 1/d in floats: it read 1.1e-15 at d = 59 and
    # 1.6e-15 at d = 127 under one x86-64 machine's default OpenBLAS kernel, and at
    # most d eps / 2 (eps = 2^-52) at every d
    assert by_gram.max_orthonormality_deviation <= d * 2**-52
    assert by_gram.max_unbiasedness_deviation <= d * 2**-52
    if d % 2 == 0:  # Gaussian integers, exact in floats
        assert by_tables.max_orthonormality_deviation == by_tables.max_unbiasedness_deviation == 0.0


@pytest.mark.parametrize("d", BASIS_SHA256)
def test_every_built_set_passes_from_its_tables_without_forming_the_bases(d):
    built = build_mub(factor_prime_power(d))
    report = verify_mub(built)
    assert report.passed
    assert "bases" not in vars(built)
    if d % 2 == 0:
        assert report.max_orthonormality_deviation == report.max_unbiasedness_deviation == 0.0


def _broken_tables(d, corruption):
    m, c, labels, u, w = _trace_form(factor_prime_power(d))
    if corruption == "y(x) = x":
        w = u
    elif corruption == "y(x) = 0":  # every phase basis is one basis: worst at b' = b
        w = [[0] * len(u[0])] * len(u)
    elif corruption == "c = 1":
        c = 1
    elif corruption == "y(1) + 2":  # labels[1] is the unit digit vector, so w[1] gains 2 u[1]; w = u mod 2 still
        w = list(w)
        w[1] = [(s + 2 * t) % m for s, t in zip(w[1], u[1])]
    else:  # "label(3) = label(2) + 2": u is still one-to-one mod 2, but the Walsh route must not take it
        labels = list(labels)
        labels[3] = ((labels[2][0] + 2) % m,) + labels[2][1:]
    return m, c, labels, u, w


@pytest.mark.parametrize("d, corruption", [(5, "y(x) = x"), (9, "y(x) = x"), (7, "y(x) = 0"), (4, "c = 1"),
                                           (8, "c = 1"), (8, "y(1) + 2"), (16, "y(1) + 2"),
                                           (4, "label(3) = label(2) + 2"), (8, "label(3) = label(2) + 2")])
def test_the_character_route_measures_broken_tables(d, corruption):
    dim = factor_prime_power(d)
    broken = MubSet(dim=dim, tables=_broken_tables(d, corruption))
    by_tables = verify_mub(broken)
    by_gram = verify_mub(MubSet(dim=dim, bases=_phase_bases(dim, broken.tables)))
    assert not by_tables.passed and not by_gram.passed
    for name in ("max_orthonormality_deviation", "max_unbiasedness_deviation"):
        assert getattr(by_tables, name) == pytest.approx(getattr(by_gram, name), abs=1e-12), name


@pytest.mark.parametrize("d, corruption", [(2, None), (8, None), (16, None), (8, "y(1) + 2"), (16, "y(1) + 2")])
def test_the_walsh_route_gives_the_direct_sums_exactly(monkeypatch, d, corruption):
    tables = _trace_form(factor_prime_power(d)) if corruption is None else _broken_tables(d, corruption)
    walsh = _character_deviations(d, tables)
    labels = tables[2]
    monkeypatch.setattr(mub_mod, "_walsh_sums", lambda q, u, w: _direct_sums(q, 4, 2, labels, u, w, _roots(4)))
    assert _character_deviations(d, tables) == walsh
    assert (walsh == (0.0, 0.0)) == (corruption is None)


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

    roots = np.array(_roots(p))  # the one root table, which the bases share with evolve
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
    # the same floats give the same Gram report; ``new`` itself is verified from its tables
    floats = MubSet(dim=dim, bases=new.bases)
    assert dumps_canonical(verify_mub(floats).to_payload()) == dumps_canonical(verify_mub(old).to_payload())


@pytest.mark.parametrize("d", BASIS_SHA256)
def test_first_entry_of_every_phase_basis_is_exactly_one_over_sqrt_d(d):
    # x = 0 gives exponent 0 in every basis, so no phase pass is needed
    bases = build_mub(factor_prime_power(d)).bases
    assert np.all(bases[1:, 0, :] == 1 / np.sqrt(d))
