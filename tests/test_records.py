"""The public records keep their constructors, values and payload bytes.

Each record is a plain class. The frozen ones (``errors.Frozen``) refuse
assignment, compare by value and hash alike when equal; the others are
ordinary mutable objects. The payload strings below were written by the
earlier, dataclass-based records from the same inputs.
"""

import inspect
import math

import pytest

from paulimix.dynmaps import Cosine, Exponential, MixtureMap, Plateau
from paulimix.finite_field import PrimePowerDim, factor_prime_power
from paulimix.invertibility import Classification, InvertibilityReport, PropagatorStep
from paulimix.measure import MeasureResult, SweepRow
from paulimix.mub import MubSet, MubVerification, build_mub
from paulimix.oracle import DualMapResult, KrausSet
from paulimix.serialization import dumps_canonical
from paulimix.threshold import Regime, RegimeKind

_EMPTY = inspect.Parameter.empty


_QUBIT_BASES = build_mub(factor_prime_power(2)).bases

# name -> (record class, positional arguments, payload bytes or None);
# the families' payload is their describe()
FROZEN = {
    "PrimePowerDim": (PrimePowerDim, (3, 2), None),
    "Exponential": (Exponential, (1.5, 0.25), '{"family": "exponential", "n": 1.5, "c": 0.25}'),
    "Cosine": (Cosine, (2.0,), '{"family": "cosine", "omega": 2}'),
    "Plateau-linear": (Plateau, (1.5,), '{"family": "plateau", "t_sharp": 1.5, "ramp": "linear"}'),
    "PropagatorStep": (
        PropagatorStep,
        (0.1, 0.2, -1e-3, False),
        '{"t_start": 0.10000000000000001, "t_end": 0.20000000000000001, "choi_min_eigenvalue": -0.001, "cp": false}',
    ),
    "Regime": (
        Regime,
        (7, 1.1, RegimeKind.INTERMEDIATE, 49 / 48, 7 / 6),
        '{"d": 7, "n": 1.1000000000000001, "classification": "intermediate_noninvertible", '
        '"interval": {"lower": 1.0208333333333333, "upper": 1.1666666666666667}}',
    ),
    "MeasureResult": (
        MeasureResult,
        (9, 1.05, 0.25, "monte_carlo", 1000, 0.0125, 3),
        '{"d": 9, "n": 1.05, "delta": 0.25, "method": "monte_carlo", "samples": 1000, '
        '"stderr": 0.012500000000000001, "seed": 3}',
    ),
    "MeasureResult-defaults": (
        MeasureResult,
        (9, 1.05, 0.5, "closed_form"),
        '{"d": 9, "n": 1.05, "delta": 0.5, "method": "closed_form", "samples": null, "stderr": null, "seed": null}',
    ),
    "SweepRow": (SweepRow, (7, 0.5, math.log10(0.5)), '{"d": 7, "delta": 0.5, "log10_delta": -0.3010299956639812}'),
    "MubVerification": (
        MubVerification,
        (3, 1e-12, 2e-16, 3e-16),
        '{"d": 3, "tol": 9.9999999999999998e-13, "max_orthonormality_deviation": 2e-16, '
        '"max_unbiasedness_deviation": 2.9999999999999999e-16, "passed": true}',
    ),
    "MubSet": (
        MubSet,
        (factor_prime_power(2), _QUBIT_BASES),
        '{"d": 2, "bases": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], '
        "[[[0.70710678118654746, 0], [0.70710678118654746, 0]], [[0.70710678118654746, 0], [-0.70710678118654746, 0]]], "
        "[[[0.70710678118654746, 0], [0.70710678118654746, 0]], [[0, 0.70710678118654746], [0, -0.70710678118654746]]]]}",
    ),
}

# every public record: (parameter name, default) in constructor order, as the dataclasses had them
SIGNATURES = {
    PrimePowerDim: [("p", _EMPTY), ("k", _EMPTY)],
    Exponential: [("n", _EMPTY), ("c", _EMPTY)],
    Cosine: [("omega", _EMPTY)],
    Plateau: [("t_sharp", _EMPTY)],
    MixtureMap: [("dim", _EMPTY), ("weights", _EMPTY), ("pf", _EMPTY)],
    # the dataclass default was a new empty list per report; None stands for it
    # its first time and its verdict are read from the times, not given
    InvertibilityReport: [("singular_times", _EMPTY), ("warnings", None)],
    PropagatorStep: [("t_start", _EMPTY), ("t_end", _EMPTY), ("choi_min_eigenvalue", _EMPTY), ("cp", _EMPTY)],
    Regime: [("d", _EMPTY), ("n", _EMPTY), ("kind", _EMPTY), ("lower", _EMPTY), ("upper", _EMPTY)],
    MeasureResult: [("d", _EMPTY), ("n", _EMPTY), ("delta", _EMPTY), ("method", _EMPTY),
                    ("samples", None), ("stderr", None), ("seed", None)],
    SweepRow: [("d", _EMPTY), ("delta", _EMPTY), ("log10_delta", _EMPTY)],
    # a built set holds its trace-form tables instead, and forms the bases when they are read
    MubSet: [("dim", _EMPTY), ("bases", None), ("tables", None)],
    MubVerification: [("d", _EMPTY), ("tol", _EMPTY), ("max_orthonormality_deviation", _EMPTY),
                      ("max_unbiasedness_deviation", _EMPTY)],
    KrausSet: [("operators", _EMPTY)],
    DualMapResult: [("kraus", _EMPTY), ("original_tp_defect", _EMPTY), ("dual_tp_defect", _EMPTY)],
}


def test_every_record_keeps_its_constructor():
    assert len(SIGNATURES) == 14
    for cls, params in SIGNATURES.items():
        got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
        assert got == params, cls.__name__


def _names(cls, args):
    return [name for name, _ in SIGNATURES[cls]][: len(args)]


@pytest.mark.parametrize("cls, args, payload", FROZEN.values(), ids=FROZEN.keys())
def test_a_frozen_record_keeps_its_values_and_bytes(cls, args, payload):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(_names(cls, args), args)))
    # the same attributes, under the parameter names, however it was built
    names = [name for name, _ in SIGNATURES[cls]]
    assert list(vars(by_position)) == names
    for name in names:
        assert getattr(by_position, name) is getattr(by_keyword, name)

    # equal inputs compare equal; a record with an array field has no hash
    assert by_position == by_keyword
    assert not by_position != by_keyword
    if cls is not MubSet:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    assert by_position != object()

    for name in names:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    with pytest.raises(AttributeError):
        by_position.extra = 1
    assert list(vars(by_position)) == names

    if payload is not None:
        out = by_position.describe() if hasattr(by_position, "describe") else by_position.to_payload()
        assert dumps_canonical(out) == payload


def test_records_compare_by_class_and_value():
    assert PrimePowerDim(3, 2) != Exponential(3, 2)
    assert Exponential(1.5, 1.0) != Exponential(1.5, 2.0)
    assert MeasureResult(9, 1.05, 0.5, "closed_form") != MeasureResult(9, 1.05, 0.5, "closed_form", seed=0)
    assert PrimePowerDim(2, 5) == factor_prime_power(32)
    assert repr(PrimePowerDim(2, 5)) == "PrimePowerDim(p=2, k=5)"


def test_the_mutable_records_keep_their_defaults_and_validation():
    a = InvertibilityReport([0.5, None, 1.25])
    b = InvertibilityReport(singular_times=[0.5, None, 1.25])
    assert vars(a) == vars(b)
    assert a.warnings == [] and a.warnings is not b.warnings
    a.warnings.append("w")
    assert b.warnings == []
    assert a.t_star == 0.5 and a.classification is Classification.NONINVERTIBLE
    c = InvertibilityReport([None, None, None])
    assert c.t_star is None and c.classification is Classification.INVERTIBLE
    for name in ("t_star", "classification"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)

    dim = factor_prime_power(2)
    m = MixtureMap(dim, [0.5, 0.25, 0.25], Exponential(1.5, 1.0))
    assert m.weights == (0.5, 0.25, 0.25) and m.d == 2 and m.dim is dim
    assert m != MixtureMap(dim=dim, weights=(0.5, 0.25, 0.25), pf=Exponential(1.5, 1.0))  # compared by identity
    assert m._basis_columns is m._basis_columns  # cached on first use
    m.pf = Cosine(1.0)  # a map is not frozen
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureMap(dim, [0.5, 0.5, 0.5], Exponential(1.5, 1.0))

    ks = KrausSet([[[1, 0], [0, 1]]])
    assert ks.d == 2 and ks.operators[0].dtype == complex
    dual = DualMapResult(ks, 0.0, 1e-3)
    assert dual.original_trace_preserving and not dual.dual_trace_preserving
