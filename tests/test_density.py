"""Tests for the pattern-basis density matrices."""

import numpy as np
import pytest

from wchip.density import BASIS_THREE, ThreePhotonRho, trace_distance
from wchip.errors import DimensionMismatch, InvalidRho

from oracles import rho_b_matrix, w_vector


def test_three_photon_rho_validation():
    not_hermitian = np.full((3, 3), 1 / 3)
    not_hermitian[1, 0] = 0.2
    with pytest.raises(InvalidRho, match="not Hermitian"):
        ThreePhotonRho(not_hermitian)
    with pytest.raises(InvalidRho, match="trace must be 1"):
        ThreePhotonRho(np.eye(3))
    with pytest.raises(DimensionMismatch):
        ThreePhotonRho(np.eye(2) / 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ThreePhotonRho(np.diag([np.inf, 0.0, 0.0])),
        lambda: ThreePhotonRho.from_offdiagonals(np.inf, 0.0, 0.0),
        lambda: ThreePhotonRho(np.full((3, 3), np.nan)),
        lambda: ThreePhotonRho.from_offdiagonals(complex(0.0, np.nan), 0.0, 0.0),
    ],
)
def test_non_finite_entries_are_invalid(make):
    with pytest.raises(InvalidRho):
        make()


def test_positivity_is_reported_not_enforced():
    rho = ThreePhotonRho.from_offdiagonals(0.4, 0.0, 0.0)  # unphysical coherence
    assert rho.min_eigenvalue() == pytest.approx(1 / 3 - 0.4)
    assert not rho.is_physical()


def test_three_photon_from_offdiagonals():
    rho = ThreePhotonRho.from_offdiagonals(1 / 3, 1 / 3, 1 / 3)
    assert rho.diagonals == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert rho.matrix[0, 1] == pytest.approx(1 / 3)
    assert rho.fidelity_w() == pytest.approx(1.0)
    assert rho.is_physical()


def test_fidelity_is_w_expectation():
    rng = np.random.default_rng(4)
    for _ in range(10):
        offs = rng.standard_normal(3) * 0.1 + 1j * rng.standard_normal(3) * 0.1
        rho = ThreePhotonRho.from_offdiagonals(*offs)
        w = w_vector()
        assert rho.fidelity_w() == pytest.approx(float((w @ rho.matrix @ w).real))


def test_biseparable_reference_values():
    # the counting-indistinguishable mixture: diagonal thirds, coherences 1/6
    rho = ThreePhotonRho(rho_b_matrix())
    assert rho.matrix[0, 1] == pytest.approx(1 / 6)
    assert rho.fidelity_w() == pytest.approx(2 / 3)
    assert rho.is_physical()


def test_trace_distance_properties():
    w = ThreePhotonRho.from_offdiagonals(1 / 3, 1 / 3, 1 / 3)
    s = ThreePhotonRho.from_offdiagonals(0, 0, 0)
    b = ThreePhotonRho(rho_b_matrix())
    assert trace_distance(w, w) == pytest.approx(0.0)
    assert trace_distance(w, s) == pytest.approx(trace_distance(s, w))
    assert trace_distance(w, s) == pytest.approx(2 / 3)
    assert trace_distance(w, b) <= trace_distance(w, s) + trace_distance(s, b) + 1e-12
    assert trace_distance(w, b) == pytest.approx(1 / 3)


def test_json_dict_shape():
    rho = ThreePhotonRho.from_offdiagonals(1 / 3, 0, 0)
    doc = rho.as_json_dict()
    assert doc["basis"] == list(BASIS_THREE)
    assert doc["re"][0][1] == pytest.approx(1 / 3)
    assert doc["im"][0][1] == 0.0


def test_csv_rendering():
    rho = ThreePhotonRho.from_offdiagonals(0, 0, 0)
    text = rho.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("basis,BBR_re,BBR_im")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "BBR"
    assert float(first[1]) == pytest.approx(1 / 3)
