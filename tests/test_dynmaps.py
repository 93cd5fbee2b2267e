import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix.dynmaps import (
    Cosine,
    Exponential,
    Plateau,
    generator_rates,
    mixture_map,
    validate_density_matrix,
)
from paulimix.errors import (
    NegativeTimeError,
    NonHermitianError,
    RateSingularError,
    SingularAtTimeError,
    ValidationError,
)
from paulimix.mub import cached_mub
from paulimix.oracle import (
    KrausSet,
    is_cp,
    kraus_dagger_dual,
    numeric_generator,
    phase_unitaries,
    random_density_matrix,
    to_choi,
    unvec,
    vec,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_kraus_set(d, rng, count=None):
    count = count or rng.integers(1, d * d + 1)
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(count)]
    gram = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(gram)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return KrausSet([k @ inv_sqrt for k in ops])


def input_map(d, i, pf):
    """Input map i alone: the mixture with a one-hot weight on basis i."""
    weights = np.zeros(d + 1)
    weights[i] = 1.0
    return mixture_map(d, weights, pf)


def dense_generator_rates(m, t, h):
    """Rates read off the dense numeric generator on the eigenoperators U_i."""
    gen = numeric_generator(m, t, h)
    rates = np.empty(m.d + 1)
    for i, U in enumerate(phase_unitaries(m.d)):
        v = vec(U)
        rates[i] = float(np.real(np.vdot(v, gen @ v) / np.vdot(v, v)))
    return rates


# the d and families every spectral route is checked against the dense oracle on
ORACLE_DIMS = [2, 3, 4, 5, 7, 8, 9]
ORACLE_PF = {"exponential": Exponential(n=2.0, c=1.0), "cosine": Cosine(omega=1.0)}


# --- decoherence functions ----------------------------------------------------


def test_p_eval_exponential():
    pf = Exponential(n=2, c=1)
    assert pf.value(0.0) == 0.0
    assert pf.value(60.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NegativeTimeError):
        pf.value(-0.1)


def test_p_eval_cosine():
    assert Cosine(omega=math.pi).value(1.0) == pytest.approx(1.0, abs=1e-12)
    assert Cosine(omega=1.0).value(0.0) == 0.0


def test_p_eval_plateau():
    pf = Plateau(t_sharp=2.0)
    assert pf.value(0.0) == 0.0
    assert pf.value(1.0) == pytest.approx(0.25)
    assert pf.value(2.0) == 0.5
    assert pf.value(50.0) == 0.5


def test_parameter_validation():
    with pytest.raises(ValidationError):
        Exponential(n=0.5, c=1)
    with pytest.raises(ValidationError):
        Exponential(n=2, c=0)
    with pytest.raises(ValidationError):
        Cosine(omega=-1)
    with pytest.raises(ValidationError):
        Plateau(t_sharp=0)
    for bad in (math.nan, math.inf, -math.inf):
        for make in (
            lambda v: Exponential(n=v, c=1),
            lambda v: Exponential(n=2, c=v),
            lambda v: Cosine(omega=v),
            lambda v: Plateau(t_sharp=v),
            lambda v: mixture_map(2, [0.5, 0.5, v], Exponential(n=2, c=1)),
        ):
            with pytest.raises(ValidationError):
                make(bad)


# --- input maps and mixtures ----------------------------------------------------


def test_input_map_is_identity_at_t0():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(3, rng)
    out = input_map(3, 1, Exponential(n=1.5, c=2.0)).apply(0.0, rho)
    assert np.max(np.abs(out - rho)) < 1e-15


def test_input_map_reduces_to_qubit_pauli_channel():
    pf = Exponential(n=1.2, c=0.7)
    rng = np.random.default_rng(2)
    for t in (0.3, 1.1, 4.0):
        p = pf.value(t)
        rho = random_density_matrix(2, rng)
        for i, sigma in enumerate([SZ, SX, SY]):
            expected = (1 - p) * rho + p * sigma @ rho @ sigma
            out = input_map(2, i, pf).apply(t, rho)
            assert np.max(np.abs(out - expected)) < 1e-12


def test_input_map_fixes_own_basis_projector_at_full_dephasing():
    d = 3
    m = cached_mub(d)
    pf = Cosine(omega=math.pi)  # p(1) = 1
    for i in (0, 2, 3):
        v = m.bases[i][:, 0]
        rho = np.outer(v, v.conj())
        out = input_map(d, i, pf).apply(1.0, rho)
        assert np.max(np.abs(out - rho)) < 1e-12


def test_mixture_requires_simplex_weights():
    with pytest.raises(ValidationError):
        mixture_map(2, [0.5, 0.2, 0.2], Exponential(n=2, c=1))
    with pytest.raises(ValidationError):
        mixture_map(2, [0.5, 0.6, -0.1], Exponential(n=2, c=1))
    with pytest.raises(ValidationError):
        mixture_map(2, [0.5, 0.5], Exponential(n=2, c=1))


def test_mixture_identity_at_t0_and_fixed_max_mixed():
    m = mixture_map(5, np.full(6, 1 / 6), Exponential(n=1.1, c=1))
    rng = np.random.default_rng(3)
    rho = random_density_matrix(5, rng)
    assert np.max(np.abs(m.apply(0.0, rho) - rho)) < 1e-15
    eye5 = np.eye(5) / 5
    for t in (0.5, 2.0, 9.0):
        assert np.max(np.abs(m.apply(t, eye5) - eye5)) < 1e-14


def test_equal_mixing_semigroup_contracts_bloch_vector():
    m = mixture_map(2, [1 / 3, 1 / 3, 1 / 3], Exponential(n=4 / 3, c=1))
    rng = np.random.default_rng(4)
    rho = random_density_matrix(2, rng)
    bloch0 = np.array([np.trace(rho @ s).real for s in (SX, SY, SZ)])
    for t in (0.25, 1.0, 3.0):
        rho_t = m.apply(t, rho)
        bloch_t = np.array([np.trace(rho_t @ s).real for s in (SX, SY, SZ)])
        assert np.max(np.abs(bloch_t - math.exp(-t) * bloch0)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    t=st.floats(0.0, 8.0),
)
def test_mixture_outputs_valid_states(raw, t):
    weights = np.array(raw) / sum(raw)
    m = mixture_map(3, weights, Exponential(n=1.05, c=1.3))
    rho = random_density_matrix(3, np.random.default_rng(7))
    out = m.apply(t, rho)
    assert abs(np.trace(out).real - 1) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(out)) > -1e-10


# --- eigenvalue profile ----------------------------------------------------------


def test_eigenvalue_profile_examples():
    m = mixture_map(2, [1 / 3, 1 / 3, 1 / 3], Exponential(n=2, c=1))
    assert m.eigenvalues(0.0)[0] == 1.0
    # p = 1/2 at t = 0.5 for the cosine with omega = pi
    m2 = mixture_map(2, [1 / 3, 1 / 3, 1 / 3], Cosine(omega=math.pi))
    assert m2.eigenvalues(0.5)[0] == pytest.approx(1 - 2 * (2 / 3) * 0.5, abs=1e-12)
    assert m2.eigenvalues(0.5)[0] == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_equal_mixing_at_magic_n_gives_pure_exponential(d):
    n = d * d / (d * d - 1)
    c = 1.7
    m = mixture_map(d, np.full(d + 1, 1 / (d + 1)), Exponential(n=n, c=c))
    for t in (0.1, 1.0, 3.0):
        lam = np.asarray(m.eigenvalues(t))
        assert np.max(np.abs(lam - math.exp(-c * t))) < 1e-12


# --- superoperator / Choi ----------------------------------------------------------


def test_superoperator_identity_at_t0():
    m = mixture_map(3, [0.4, 0.3, 0.2, 0.1], Exponential(n=1.5, c=1))
    assert np.max(np.abs(m.superoperator(0.0) - np.eye(9))) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_superoperator_spectrum_matches_profile(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(d + 1))
        t = rng.uniform(0.05, 4.0)
        m = mixture_map(d, weights, Exponential(n=rng.uniform(1.0, 2.5), c=1))
        eigs = np.sort_complex(np.linalg.eigvals(m.superoperator(t)))
        lam = m.eigenvalues(t)
        expected = np.sort_complex(
            np.array([1.0] + [v for v in lam for _ in range(d - 1)], dtype=complex)
        )
        assert np.max(np.abs(eigs - expected)) < 1e-10


def test_superoperator_determinant_identity():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5):
        weights = rng.dirichlet(np.ones(d + 1))
        m = mixture_map(d, weights, Exponential(n=1.4, c=1))
        t = 0.9
        det = np.linalg.det(m.superoperator(t))
        expected = np.prod(np.asarray(m.eigenvalues(t)) ** (d - 1))
        assert abs(det - expected) < 1e-8 * max(1.0, abs(expected))


def test_superoperator_preserves_trace_functional():
    m = mixture_map(3, [0.4, 0.3, 0.2, 0.1], Exponential(n=1.5, c=1))
    s = m.superoperator(1.3)
    eye_vec = vec(np.eye(3))
    assert np.max(np.abs(s.conj().T @ eye_vec - eye_vec)) < 1e-12


def test_apply_agrees_with_superoperator():
    m = mixture_map(4, [0.4, 0.2, 0.2, 0.1, 0.1], Cosine(omega=0.8))
    rng = np.random.default_rng(8)
    rho = random_density_matrix(4, rng)
    t = 1.1
    direct = m.apply(t, rho)
    via_superop = unvec(m.superoperator(t) @ vec(rho))
    assert np.max(np.abs(direct - via_superop)) < 1e-12
    assert np.array_equal(m.apply(t, rho), direct)
    p = m.pf.value(t)
    assert m.eigenvalues(t)[2] == pytest.approx(1 - (4 / 3) * (1 - 0.2) * p, abs=1e-15)


@pytest.mark.parametrize("family", sorted(ORACLE_PF))
@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_apply_matches_dense_superoperator(d, family):
    rng = np.random.default_rng(40 + d)
    m = mixture_map(d, rng.dirichlet(np.ones(d + 1)), ORACLE_PF[family])
    for t in (0.0, 0.4, 1.3, 2.9):
        rho = random_density_matrix(d, rng)
        via_superop = unvec(m.superoperator(t) @ vec(rho))
        assert np.max(np.abs(m.apply(t, rho) - via_superop)) < 1e-13


def test_choi_of_identity_map():
    choi = to_choi(np.eye(4, dtype=complex))
    eigs = np.linalg.eigvalsh(choi)
    assert np.max(np.abs(eigs - np.array([0, 0, 0, 2.0]))) < 1e-14
    assert np.trace(choi).real == pytest.approx(2.0)


def test_choi_of_mixture_is_hermitian_trace_d():
    m = mixture_map(3, [0.5, 0.3, 0.1, 0.1], Exponential(n=1.2, c=1))
    for t in (0.0, 0.7, 2.4):
        choi = to_choi(m.superoperator(t))
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert np.trace(choi).real == pytest.approx(3.0, abs=1e-12)


def test_choi_of_depolarizing_qubit_map():
    ops = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        ops[idx][i, j] = 1 / math.sqrt(2)
    depol = KrausSet(ops)
    eigs = np.linalg.eigvalsh(to_choi(depol.to_superoperator()))
    assert np.max(np.abs(eigs - 0.5)) < 1e-14


def test_is_cp_flags():
    m = mixture_map(2, [0.6, 0.2, 0.2], Exponential(n=1.1, c=1))
    ok, lam_min = is_cp(to_choi(m.superoperator(1.0)))
    assert ok and lam_min > -1e-12
    # transpose map: vec(rho^T) = SWAP vec(rho); its Choi has a -1 eigenvalue
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    ok, lam_min = is_cp(to_choi(swap))
    assert not ok
    assert lam_min == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(NonHermitianError):
        is_cp(np.array([[0, 1], [0, 0]], dtype=complex))


# --- Kraus dual -------------------------------------------------------------------


def test_pauli_kraus_set_is_self_dual():
    p = 0.3
    ks = KrausSet([math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * SX])
    dual = kraus_dagger_dual(ks)
    assert dual.original_trace_preserving
    assert dual.dual_trace_preserving
    for a, b in zip(dual.kraus.operators, ks.operators):
        assert np.max(np.abs(a - b)) < 1e-15


def test_amplitude_damping_dual_is_not_trace_preserving():
    gamma = 0.4
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    ks = KrausSet([k0, k1])
    assert ks.completeness_defect() < 1e-15
    dual = kraus_dagger_dual(ks)
    assert dual.original_trace_preserving
    assert not dual.dual_trace_preserving
    assert dual.dual_tp_defect == pytest.approx(gamma, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_dual_superoperator_is_adjoint_hence_det_conjugate(d):
    rng = np.random.default_rng(23 + d)
    for _ in range(10):
        ks = random_kraus_set(d, rng)
        s = ks.to_superoperator()
        s_dual = kraus_dagger_dual(ks).kraus.to_superoperator()
        assert np.max(np.abs(s_dual - s.conj().T)) < 1e-12
        assert abs(np.linalg.det(s_dual) - np.conj(np.linalg.det(s))) < 1e-10


# --- decay rate ------------------------------------------------------------------


def test_decay_rate_examples():
    assert Exponential(n=2, c=1).decay_rate(0.0) == pytest.approx(0.5)
    assert Exponential(n=3, c=2).decay_rate(40.0) == pytest.approx(0.0, abs=1e-12)
    assert Cosine(omega=1).decay_rate(math.pi / 4) == pytest.approx(0.5, abs=1e-12)


def test_decay_rate_singularities():
    # n < 2: diverges at t = ln(2/(2-n))/c
    n, c = 1.0, 1.0
    t_sing = math.log(2 / (2 - n)) / c
    with pytest.raises(RateSingularError):
        Exponential(n=n, c=c).decay_rate(t_sing)
    with pytest.raises(RateSingularError):
        Cosine(omega=2.0).decay_rate(math.pi / 4)
    with pytest.raises(ValidationError):
        Plateau(t_sharp=1.0).decay_rate(0.5)


def test_an_exponential_decay_rate_whose_growth_overflows_is_refused():
    assert 0.0 < Exponential(n=3, c=1).decay_rate(709.0) < 1e-300
    with pytest.raises(ValidationError, match=r"overflows at c=1, t=800"):
        Exponential(n=3, c=1).decay_rate(800.0)


def test_a_cosine_decay_rate_whose_phase_overflows_is_refused():
    with pytest.raises(ValidationError, match=r"overflows at omega=1e\+300, t=10000000000.0"):
        Cosine(omega=1e300).decay_rate(1e10)


# --- numeric generator -------------------------------------------------------------


def test_generator_matches_single_map_rate():
    for n in (2.0, 3.0):
        pf = Exponential(n=n, c=1)
        m = mixture_map(2, [1.0, 0.0, 0.0], pf)
        for t in (0.0, 0.4, 1.7, 2.9):
            rates = generator_rates(m, t, h=1e-5)
            gamma = pf.decay_rate(t)
            assert rates[0] == pytest.approx(0.0, abs=1e-9)
            assert rates[1] == pytest.approx(-2 * gamma, rel=1e-7)
            assert rates[2] == pytest.approx(-2 * gamma, rel=1e-7)


def test_generator_rates_at_t0():
    d = 3
    weights = [0.4, 0.3, 0.2, 0.1]
    pf = Exponential(n=1.5, c=2.0)
    m = mixture_map(d, weights, pf)
    rates = generator_rates(m, 0.0, h=1e-6)
    dp0 = pf.c / pf.n
    for i, x in enumerate(weights):
        assert rates[i] == pytest.approx(-(d / (d - 1)) * (1 - x) * dp0, rel=1e-6, abs=1e-9)


def test_generator_constant_at_semigroup_point():
    d, c = 3, 1.0
    m = mixture_map(d, np.full(4, 0.25), Exponential(n=d * d / (d * d - 1), c=c))
    samples = [np.asarray(generator_rates(m, t, h=1e-5)) for t in (0.2, 0.8, 1.9, 3.4)]
    for rates in samples:
        assert np.max(np.abs(rates + c)) < 1e-8


def test_generator_requires_invertibility():
    m = mixture_map(2, [0.1, 0.45, 0.45], Exponential(n=1.0, c=1.0))
    # lambda_0 = 1 - 2 * 0.9 * p hits zero when p = 5/9
    t_sing = -math.log(1 - 5 / 9)
    with pytest.raises(SingularAtTimeError):
        generator_rates(m, t_sing, 1e-5)
    with pytest.raises(SingularAtTimeError):
        numeric_generator(m, t_sing, 1e-5)
    with pytest.raises(ValidationError):
        generator_rates(m, 0.5, 0.0)


@pytest.mark.parametrize("family", sorted(ORACLE_PF))
@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_generator_rates_match_dense_generator(d, family):
    rng = np.random.default_rng(60 + d)
    m = mixture_map(d, rng.dirichlet(np.ones(d + 1)), ORACLE_PF[family])
    # t = 0 takes the forward stencil; the cosine rates vanish there
    times = (0.0, 0.5, 2.0) if family == "exponential" else (0.3, 1.1)
    for t in times:
        np.testing.assert_allclose(
            generator_rates(m, t, h=1e-5), dense_generator_rates(m, t, h=1e-5), rtol=1e-8, atol=0
        )


# --- state helpers ------------------------------------------------------------------


def test_validate_density_matrix():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(4, rng)
    validate_density_matrix(rho)
    with pytest.raises(ValidationError):
        validate_density_matrix(rho * 2)
    with pytest.raises(ValidationError):
        validate_density_matrix(np.array([[0.5, 0.7], [0.2, 0.5]]))
