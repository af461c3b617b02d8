"""Every library entry point reads each argument in one form.

Each kind of argument has one reader in ``wchip.errors``, with the rule the
config reader states: a real number is a ``numbers.Real``, a count an
integer or an integral float, a channel index an integer, never negative,
an amplitude a number, a ``Color`` or ``Branch`` a member, and a channel
name a ``str``; a ``bool`` is none of them.  A value in a second form raises
a named ``WchipError``.  Before, each site coerced it with ``float()``,
``int()``, ``complex()``, ``str()``, ``Color()`` or ``Branch()``: it ran on
the coerced value (100.7 shots ran 100, channel 2.9 read channel 2) or
failed with a bare ``TypeError``, ``ValueError`` or ``IndexError``.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import wchip.errors
from wchip import (
    AddDropFilter,
    Branch,
    CircuitSpec,
    Color,
    DirectionalCoupler,
    SourceSpec,
    SweepSpec,
    ValidationError,
    WchipError,
    apply_mode_transform,
    build_transform,
    canonical_w_circuit,
    discriminate,
    herald,
    maximize,
    reduce_to_channels,
    run_tomography,
    two_pair_state,
    w_fidelity,
    w_state,
)
from wchip.circuit import transfer_rows

_W = w_state(Branch.T1)
_RHO = reduce_to_channels(_W, (2, 3, 4))
_SPEC = canonical_w_circuit(0.5, 0.5, 0.5)
_STATE = apply_mode_transform(two_pair_state(0), build_transform(_SPEC))
_AXES = {"r1": (0.5,), "r2": (0.5,), "r3": (0.5,)}


def _sampled(arguments):
    """A sampled tomography run of the W state with one argument from
    ``arguments(value)``, at a threshold no counting deviation passes, so
    that a coerced value would run."""
    return lambda v: run_tomography(_W, **{"shots": 4000, "seed": 1, "diag_threshold": 1, **arguments(v)})


#: Each site as a call of the one argument under test, and its wrong forms.
_SITES = {
    "run_tomography-shots": (_sampled(lambda v: {"shots": v}), ["4000", True, 4000.7, Decimal(4000)]),
    "run_tomography-seed": (_sampled(lambda v: {"seed": v}), ["1", True, None, 1.5]),
    "run_tomography-diag_threshold": (
        lambda v: run_tomography(_W, diag_threshold=v), ["0.9", True, None, math.nan]
    ),
    "discriminate-threshold": (lambda v: discriminate(_RHO, threshold=v), ["0.9", True, None, math.nan]),
    "reduce_to_channels-keep": (lambda v: reduce_to_channels(_W, (v, 3, 4)), ["2", True, None, 2.9]),
    "two_pair_state-channel": (two_pair_state, ["0", True, None, 0.9]),
    "transfer_rows-channel": (lambda v: transfer_rows(_SPEC, v), ["0", True, None, 1.5]),
    "DirectionalCoupler-channels": (lambda v: DirectionalCoupler(v, 0.5), [(0, 1, 2), (0,), 5, None]),
    "DirectionalCoupler-r": (lambda v: DirectionalCoupler((0, 1), v), ["0.5", True, None]),
    "DirectionalCoupler-phi": (lambda v: DirectionalCoupler((0, 1), 0.5, phi=v), ["0.5", True, None]),
    "AddDropFilter-extinction": (lambda v: AddDropFilter(1, 5, 6, Color.BLUE, v), ["0.1", True, None]),
    "AddDropFilter-resonant_color": (lambda v: AddDropFilter(1, 5, 6, v), [1, "Blue", None]),
    "SourceSpec-beta": (lambda v: SourceSpec(0, v), ["0.1", True, None]),
    "SourceSpec-max_order": (lambda v: SourceSpec(0, 0.1, max_order=v), [2 + 0j, "2", 2.7, True, Decimal(2)]),
    "CircuitSpec-channels": (CircuitSpec, [(0, 1), ("0", 1), (True, "x"), ("x", None), "01", None]),
    "CircuitSpec-elements": (lambda v: CircuitSpec(("a",), v), [5, None]),
    "CircuitSpec-phases": (
        lambda v: CircuitSpec(("a", "b"), (), v), [("0.1", 0.0), (True, "2"), (None, 0.0), "x", 0.5]
    ),
    "SweepSpec-axis": (
        lambda v: SweepSpec(**{**_AXES, "r1": v}), ["0", 0.5, None, ("0.5",), (True,), (None,)]
    ),
    "maximize-tol": (maximize, ["1e-4", True, None]),
    "maximize-grid_step": (lambda v: maximize(1e-4, grid_step=v), ["0.04", True, None]),
    "maximize-grid_bounds": (
        lambda v: maximize(1e-4, grid_bounds=v), [(0.1, 0.5, 0.9), (0.1,), ("0.1", 0.9), None, "ab"]
    ),
    "herald-branch": (lambda v: herald(_STATE, v), ["T1", 0, None]),
    "w_state-branch": (w_state, ["T1", 0, None]),
    "w_fidelity-target": (lambda v: w_fidelity(_W, v), ["T1", 0, None]),
}


@pytest.mark.parametrize(
    "site, value",
    [pytest.param(site, value, id=f"{site}-{value!r}") for site, (_, values) in _SITES.items() for value in values],
)
def test_an_argument_in_a_second_form_is_a_named_error(site, value):
    call = _SITES[site][0]
    with pytest.raises(WchipError):
        call(value)


def test_real_arguments_take_ints_and_numpy_numbers():
    for r, phi in ((np.float64(0.5), np.float64(0.25)), (np.float32(0.5), np.float32(0.25))):
        assert DirectionalCoupler((0, 1), r, phi=phi) == DirectionalCoupler((0, 1), 0.5, phi=0.25)
    for one in (1, np.int64(1)):
        coupler = DirectionalCoupler((0, 1), one, phi=0)
        assert (coupler.r, coupler.phi) == (1.0, 0.0) and type(coupler.r) is type(coupler.phi) is float
    assert AddDropFilter(1, 5, 6, Color.RED, np.float64(0.1)) == AddDropFilter(1, 5, 6, Color.RED, 0.1)
    assert AddDropFilter(1, 5, 6, Color.RED, 0).extinction == 0.0
    assert canonical_w_circuit(np.float64(0.5), 1, np.int64(0), ad2_extinction=np.float64(0.25)) == (
        canonical_w_circuit(0.5, 1.0, 0.0, ad2_extinction=0.25)
    )
    spec = CircuitSpec(["a", "b"], (), (np.float64(0.5), 1))
    assert spec == CircuitSpec(("a", "b"), (), (0.5, 1.0)) and all(type(p) is float for p in spec.phases)
    sweep_spec = SweepSpec(r1=np.array([0.2, 0.5]), r2=(0, 1), r3=[np.float64(0.5)], ad2_extinction=(0,))
    assert (sweep_spec.r1, sweep_spec.r2, sweep_spec.r3) == ((0.2, 0.5), (0.0, 1.0), (0.5,))
    assert all(type(v) is float for v in sweep_spec.r1 + sweep_spec.r2 + sweep_spec.ad2_extinction)
    assert maximize(np.float64(1e-2), grid_step=np.float64(0.2), grid_bounds=np.array([0.2, 0.8])) == (
        maximize(1e-2, grid_step=0.2, grid_bounds=(0.2, 0.8))
    )
    assert maximize(1e-2, grid_step=0.25, grid_bounds=[0, 1]) == maximize(1e-2, grid_step=0.25, grid_bounds=(0.0, 1.0))
    report = discriminate(_RHO, threshold=np.float64(0.5))
    assert report == discriminate(_RHO, threshold=0.5) and type(report.threshold) is float
    assert discriminate(_RHO, threshold=1).threshold == 1.0


def test_channel_arguments_take_numpy_integers():
    assert np.array_equal(reduce_to_channels(_W, np.array([4, 2, 3])).matrix, _RHO.matrix)
    assert list(two_pair_state(np.int64(0)).items()) == list(two_pair_state(0).items())
    assert transfer_rows(_SPEC, np.int64(0)) == transfer_rows(_SPEC, 0)
    assert SourceSpec(np.int64(0), 0.1) == SourceSpec(0, 0.1)


def test_counts_take_integral_floats_and_numpy_integers():
    reference = run_tomography(_W, shots=4000, seed=1)
    for shots, seed in ((4000.0, 1), (np.int64(4000), np.int64(1)), (4000, 1.0)):
        result = run_tomography(_W, shots=shots, seed=seed, diag_threshold=np.float64(0.02))
        assert (result.shots, result.seed, result.records) == (4000, 1, reference.records)
        assert type(result.shots) is type(result.seed) is int
    assert run_tomography(_W, diag_threshold=1).seed is None
    # a count is an integer or a real number with an integral value
    for shots in (np.float32(4000.0), Fraction(4000)):
        assert run_tomography(_W, shots=shots, seed=1, diag_threshold=1).shots == 4000


@pytest.mark.parametrize("shots", [100.7, "4000", True, Decimal(4000), np.float32(4000.5), Fraction(8001, 2)])
def test_a_count_of_a_second_form_is_refused_by_name(shots):
    with pytest.raises(ValidationError, match=f"^field 'shots': expected an integer, got {re.escape(repr(shots))}$"):
        run_tomography(_W, shots=shots, seed=1, diag_threshold=1)


@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda: DirectionalCoupler((0, 1, 2), 0.5), "channels", id="three-channels"),
        pytest.param(lambda: DirectionalCoupler((0,), 0.5), "channels", id="one-channel"),
        pytest.param(lambda: DirectionalCoupler(5, 0.5), "channels", id="an-int-for-channels"),
        pytest.param(lambda: CircuitSpec(("a",), 5), "elements", id="an-int-for-elements"),
        pytest.param(lambda: SourceSpec(0, 0.1, max_order=2 + 0j), "max_order", id="a-complex-max_order"),
    ],
)
def test_a_constructor_names_the_field_it_refuses(call, field):
    with pytest.raises(ValidationError, match=f"^field {field!r}: expected "):
        call()


def test_amplitudes_take_complex_and_numpy_numbers():
    for beta in (complex(0.1, 0.1), np.complex128(0.1 + 0.1j), np.complex64(0.25j)):
        source = SourceSpec(0, beta)
        assert source.beta == complex(beta) and type(source.beta) is complex
    assert SourceSpec(0, np.float64(0.1)) == SourceSpec(0, 0.1) == SourceSpec(0, 0.1 + 0j)


def test_every_exception_class_is_public():
    # a refused input raises a class that a caller can import from wchip
    classes, pending = [], [WchipError]
    while pending:
        classes.append(pending.pop())
        pending += classes[-1].__subclasses__()
    assert {cls.__module__ for cls in classes} == {"wchip.errors"}
    assert {cls.__name__ for cls in classes} <= set(wchip.__all__)
    assert len(classes) == 6
