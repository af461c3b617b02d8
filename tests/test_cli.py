"""End-to-end tests of the command-line driver: exit codes, output formats,
flag/config precedence, and byte-level determinism."""

import cmath
import contextlib
import io
import json
import math
import os
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wchip.cli import _axis, _sweep, main
from wchip.errors import ParamOutOfRange
from wchip.optimize import SweepSpec, herald_objective, sweep

from oracles import sweep_csv, sweep_json

OPT = {"r1": 0.5, "r2": 1 / math.sqrt(3), "r3": 1 / math.sqrt(2)}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _golden_device() -> dict:
    """The golden circuit file device.json."""
    from pathlib import Path

    return json.loads((Path(__file__).parent / "golden" / "device.json").read_text())


@pytest.fixture
def sim_config(tmp_path):
    return _write(tmp_path, "sim.json", {"canonical": OPT, "beta": 0.1})


def test_simulate_json_document(tmp_path, capsys, sim_config):
    assert main(["simulate", "--config", sim_config]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["fidelity_W_T1"] == pytest.approx(1.0)
    assert doc["herald"]["T1"]["probability"] == pytest.approx(3 / 64)
    assert doc["coincidence_distribution"]["BBR"] == pytest.approx(1 / 3)


def test_simulate_with_zero_beta_is_a_clean_null_run(tmp_path, capsys):
    cfg = _write(tmp_path, "z.json", {"canonical": OPT, "beta": 0.0})
    assert main(["simulate", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["herald"]["T1"]["probability"] == 0.0
    assert doc["fidelity_W_T1"] is None
    assert doc["coincidence_distribution"] is None


def _same_numbers(actual, expected, tol=1e-12):
    """Same document shape, and every number within `tol` of its reference."""
    if isinstance(expected, dict):
        return actual.keys() == expected.keys() and all(
            _same_numbers(actual[key], value, tol) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return len(actual) == len(expected) and all(map(_same_numbers, actual, expected))
    if isinstance(expected, float):
        return isinstance(actual, float) and abs(actual - expected) <= tol
    return actual == expected


def _csv_cells(text):
    """A CSV document's rows of cells, as floats where they parse as one."""

    def cell(field):
        try:
            return float(field)
        except ValueError:
            return field

    return [[cell(field) for field in line.split(",")] for line in text.splitlines()]


class TestSmallBeta:
    """Every herald number is a ratio inside the four-photon sector, so the
    documents at beta = 1e-7 match those at beta = 0.1 but for the echoed
    beta."""

    @staticmethod
    def _run(tmp_path, capsys, command, beta, *flags, **fields):
        cfg = _write(tmp_path, "b.json", {"canonical": OPT, "beta": beta, **fields})
        code = main([command, "--config", cfg, *flags])
        return code, capsys.readouterr()

    def test_tomo_of_a_subnormal_herald_probability(self, tmp_path, capsys):
        # P_T1 is about 1e-323, yet the heralded state is the W state
        tiny = {name: 10**-54.01 for name in OPT}
        flags = ("--shots", "4000", "--seed", "1")
        code, captured = self._run(tmp_path, capsys, "tomo", 0.1, *flags, canonical=tiny)
        assert code == 0, captured.err
        doc = json.loads(captured.out)
        for name in ("a", "b", "c"):
            assert doc["coefficients"][name]["re"] == pytest.approx(1 / 3, abs=0.05)

    @pytest.mark.parametrize("command", ["simulate", "herald"])
    def test_json_matches_beta_of_one_tenth(self, tmp_path, capsys, command):
        docs = []
        for beta in (1e-7, 0.1):
            code, captured = self._run(tmp_path, capsys, command, beta)
            assert code == 0
            docs.append(json.loads(captured.out))
            docs[-1].pop("beta", None)
        assert _same_numbers(*docs)
        if command == "simulate":
            assert docs[0]["coincidence_distribution"]["BBR"] == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("command", ["simulate", "herald"])
    def test_csv_matches_beta_of_one_tenth(self, tmp_path, capsys, command):
        small, reference = (
            _csv_cells(self._run(tmp_path, capsys, command, beta, "--format", "csv")[1].out)
            for beta in (1e-7, 0.1)
        )
        assert len(reference) > 2
        assert _same_numbers(small, reference)

    def test_tomo_of_the_circuit_state_sees_the_w_state(self, tmp_path, capsys):
        code, captured = self._run(
            tmp_path, capsys, "tomo", 1e-7, state="circuit", shots=20000, seed=1
        )
        assert code == 0
        assert json.loads(captured.out)["report"]["W-consistent"] is True

    @pytest.mark.parametrize("command", ["simulate", "herald", "tomo"])
    def test_an_underflowing_beta_is_a_named_error(self, tmp_path, capsys, command):
        fields = {"shots": 1000} if command == "tomo" else {}
        code, captured = self._run(tmp_path, capsys, command, 1e-100, **fields)
        assert code == 1
        assert captured.err.startswith("error:") and "underflows" in captured.err

    @pytest.mark.parametrize("command", ["simulate", "herald"])
    @pytest.mark.parametrize("beta", [1e-162, 1e-200, [1e-170, 1e-170]])
    def test_a_beta_whose_square_underflows_is_a_named_error(
        self, tmp_path, capsys, command, beta
    ):
        code, captured = self._run(tmp_path, capsys, command, beta)
        assert code == 1
        assert captured.err.startswith("error:") and "underflows" in captured.err

    @pytest.mark.parametrize("beta, max_order", [(0.0, 2), (1e-200, 1), (0.0, 1)])
    def test_a_source_without_a_double_pair_heralds_nothing(
        self, tmp_path, capsys, beta, max_order
    ):
        code, captured = self._run(tmp_path, capsys, "herald", beta, max_order=max_order)
        assert code == 0 and captured.err == ""
        for branch in json.loads(captured.out)["branches"].values():
            assert branch == {"fidelity_W": None, "probability": 0.0, "residual_weight": 0.0}


def test_herald_csv_format(capsys, sim_config):
    assert main(["herald", "--config", sim_config, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "branch,probability,fidelity_W,residual_weight"
    assert lines[1].startswith("T1,")
    assert len(lines) == 3


def test_output_file_and_out_dir_env(tmp_path, monkeypatch, capsys, sim_config):
    monkeypatch.setenv("WCHIP_OUT_DIR", str(tmp_path / "results"))
    assert main(["herald", "--config", sim_config, "--out", "nested/h.json"]) == 0
    capsys.readouterr()
    target = tmp_path / "results" / "nested" / "h.json"
    assert target.is_file()
    doc = json.loads(target.read_text())
    assert doc["command"] == "herald"


def test_absolute_out_path_ignores_env(tmp_path, monkeypatch, capsys, sim_config):
    monkeypatch.setenv("WCHIP_OUT_DIR", str(tmp_path / "elsewhere"))
    out = tmp_path / "direct.json"
    assert main(["herald", "--config", sim_config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.is_file()
    assert not (tmp_path / "elsewhere").exists()


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, "tomo.json", {"state": "w", "shots": 20000, "seed": 5})
    outputs = []
    for k in range(2):
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 0
    capsys.readouterr()
    a = (tmp_path / "o0").read_bytes()
    b = (tmp_path / "o1").read_bytes()
    assert a == b and len(a) > 0


_REFLECTIVITY = st.floats(0.05, 0.95)


@settings(max_examples=25)
@given(
    st.fixed_dictionaries(
        {
            **{key: _REFLECTIVITY for key in ("r1", "r2", "r3")},
            **{key: st.floats(-4.0, 4.0) for key in ("phi1", "phi2", "phi3")},
            "ad2_extinction": st.floats(0.0, 0.1),
        }
    ),
    st.integers(0, 2**63),
)
def test_same_seed_gives_identical_bytes(canonical, seed):
    config = {"canonical": canonical, "beta": 0.1, "shots": 100_000, "seed": seed}
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "tomo.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        documents = []
        for k in range(2):
            out = os.path.join(workdir, f"out{k}.json")
            assert main(["tomo", "--config", path, "--out", out]) == 0
            with open(out, "rb") as f:
                documents.append(f.read())
    assert documents[0] == documents[1] and documents[0]


def _json_and_csv(command, config, *flags):
    """The JSON document and the CSV rows of cells of one run of `command`."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        documents = []
        for fmt in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([command, "--config", path, "--format", fmt, *flags]) == 0
            documents.append(out.getvalue())
    return json.loads(documents[0]), [line.split(",") for line in documents[1].splitlines()]


def _bits(value):
    """A number of either document as its exact bits; an empty cell or null
    as None."""
    return None if value in ("", None) else float(value).hex()


@settings(max_examples=40, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            **{key: _REFLECTIVITY for key in ("r1", "r2", "r3")},
            **{key: st.floats(-4.0, 4.0) for key in ("phi1", "phi2", "phi3")},
            "ad2_extinction": st.floats(0.0, 0.5),
        }
    ),
    st.integers(0, 2**63),
)
def test_csv_and_json_carry_the_same_bits(canonical, seed):
    config = {"canonical": canonical, "beta": 0.1}
    doc, rows = _json_and_csv("simulate", config)
    assert rows[0] == ["pattern", "probability"]
    dist = doc["coincidence_distribution"] or {}
    assert {row[0]: _bits(row[1]) for row in rows[1:]} == {k: _bits(v) for k, v in dist.items()}

    doc, rows = _json_and_csv("herald", config)
    columns = rows[0][1:]
    assert rows[0][0] == "branch" and sorted(columns) == sorted(doc["branches"]["T1"])
    assert {row[0]: list(map(_bits, row[1:])) for row in rows[1:]} == {
        name: [_bits(branch[key]) for key in columns] for name, branch in doc["branches"].items()
    }

    config.update(shots=4000, seed=seed, diag_threshold=1.0)
    doc, rows = _json_and_csv("tomo", config)
    rho = doc["rho"]
    assert rows[0] == ["basis"] + [f"{b}_{part}" for b in rho["basis"] for part in ("re", "im")]
    assert [row[0] for row in rows[1:]] == rho["basis"]
    for k, row in enumerate(rows[1:]):
        assert list(map(_bits, row[1::2])) == list(map(_bits, rho["re"][k]))
        assert list(map(_bits, row[2::2])) == list(map(_bits, rho["im"][k]))


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = _write(tmp_path, "tomo.json", {"state": "w", "shots": 20000, "seed": 5})
    assert main(["tomo", "--config", cfg]) == 0
    base = capsys.readouterr().out
    assert main(["tomo", "--config", cfg, "--seed", "5"]) == 0
    same = capsys.readouterr().out
    assert main(["tomo", "--config", cfg, "--seed", "6"]) == 0
    different = capsys.readouterr().out
    assert base == same
    assert base != different


def test_tomo_reports_and_records(tmp_path, capsys):
    cfg = _write(tmp_path, "tomo.json", {"state": "rho_s", "shots": 50000})
    assert main(["tomo", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["coefficients"]["a"]["re"]) < 0.01
    assert doc["report"]["W-consistent"] is False
    assert len(doc["records"]) == 6


def test_tomo_circuit_state_uses_the_heralded_branch(tmp_path, capsys):
    cfg = _write(
        tmp_path, "tomo.json",
        {"canonical": OPT, "beta": 0.1, "shots": 50000, "seed": 1},
    )
    assert main(["tomo", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["W-consistent"] is True
    assert doc["coefficients"]["b"]["re"] == pytest.approx(1 / 3, abs=0.02)


def test_optimize_with_small_grid(tmp_path, capsys):
    cfg = _write(
        tmp_path, "opt.json",
        {"tol": 1e-4, "grid_step": 0.1, "grid_bounds": [0.2, 0.9]},
    )
    assert main(["optimize", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r1"] == pytest.approx(0.5, abs=1e-3)
    assert doc["value"] == pytest.approx(3 / 64, abs=1e-6)


def test_sweep_csv_default(tmp_path, capsys):
    cfg = _write(
        tmp_path, "sweep.json",
        {"sweep": {"r1": [0.4, 0.5], "r2": [OPT["r2"]], "r3": [OPT["r3"]]}},
    )
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "r1,r2,r3,ad2_extinction,herald_probability"
    assert len(lines) == 3


def test_sweep_range_object(tmp_path, capsys):
    cfg = _write(
        tmp_path, "sweep.json",
        {"sweep": {"r1": {"start": 0.2, "stop": 0.8, "num": 4}, "r2": 0.5, "r3": 0.5}},
    )
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    assert lines[1].startswith("0.2,")


@pytest.mark.parametrize(
    "axis",
    [{"start": 0.1, "stop": 1.0, "num": 8}, {"start": 0.3, "stop": 0.0, "num": 38}],
    ids=["ends-past-one", "ends-below-zero"],
)
def test_sweep_range_ends_exactly_at_stop(tmp_path, capsys, axis):
    # start + k * step rounds to 1.0000000000000002 and -5.6e-17 at the end
    # of these ranges, outside [0, 1]
    cfg = _write(tmp_path, "sweep.json", {"sweep": {"r1": axis, "r2": 0.5, "r3": 0.5}})
    assert main(["sweep", "--config", cfg]) == 0
    r1 = [float(line.split(",")[0]) for line in capsys.readouterr().out.split("\n")[1:-1]]
    assert len(r1) == axis["num"]
    assert r1[0] == axis["start"] and r1[-1] == axis["stop"]
    assert r1 == np.linspace(axis["start"], axis["stop"], axis["num"]).tolist()


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=40)
@given(_UNIT, _UNIT, st.integers(1, 60))
def test_sweep_range_stays_inside_its_ends(start, stop, num):
    block = {"r1": {"start": start, "stop": stop, "num": num}, "r2": 0.5, "r3": 0.5}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "c.json"), os.path.join(tmp, "out.csv")
        with open(cfg, "w") as handle:
            json.dump({"sweep": block}, handle)
        status, err = _main_and_stderr(["sweep", "--config", cfg, "--out", out])
        if status:
            # a named error, at an r1 below the normal floats or so close to
            # them that the checked cell's T1 amplitudes underflow
            r1 = _axis(block["r1"], "r1")[1]()
            assert 0.0 < min(v for v in r1 if v > 0.0) < 1e-300
            assert (status, err.split(":")[0]) in ((1, "error"), (2, "config error"))
            assert ("underflow" if status == 1 else "subnormal") in err
            return
        with open(out) as handle:
            r1 = [float(line.split(",")[0]) for line in handle.read().split("\n")[1:-1]]
    # one point is the start, as in numpy.linspace
    assert len(r1) == num and r1[0] == start and r1[-1] == (stop if num > 1 else start)
    assert all(min(start, stop) <= v <= max(start, stop) for v in r1)


def _main_and_stderr(argv):
    """``main(argv)`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@st.composite
def _sweep_blocks(draw):
    """A sweep config block of a small random grid, faces included, of
    axis values a SweepSpec accepts (no subnormal)."""
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False))
    block = {
        name: draw(st.lists(value, min_size=1, max_size=3, unique=True))
        for name in ("r1", "r2", "r3", "ad2_extinction")
    }
    block["metric"] = draw(st.sampled_from(["herald_probability", "w_fidelity"]))
    return block


class TestStreamedSweep:
    """``wchip sweep`` writes its document a slab of rows at a time, after
    the grid is done, with the bytes of the whole-document writers kept in
    oracles.py."""

    # more cells than one slab of rows, so the document is written in pieces
    BLOCK = {
        "r1": {"start": 0.05, "stop": 0.95, "num": 30},
        "r2": {"start": 0.02, "stop": 1.0, "num": 30},
        "r3": [0.3, 0.7],
        "ad2_extinction": {"start": 0.0, "stop": 0.5, "num": 10},
        "metric": "w_fidelity",
    }

    @settings(max_examples=40)
    @given(_sweep_blocks(), st.sampled_from(["csv", "json"]))
    def test_matches_the_whole_document_writers(self, block, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "c.json"), os.path.join(tmp, f"out.{fmt}")
            with open(cfg, "w") as handle:
                json.dump({"sweep": block}, handle)
            status, err = _main_and_stderr(["sweep", "--config", cfg, "--format", fmt, "--out", out])
            if status:  # the checked cell underflows on the Fock engine
                with pytest.raises(ParamOutOfRange) as info:
                    sweep(SweepSpec(**block))
                assert (status, err) == (1, f"error: {info.value}\n")
                assert not os.path.exists(out)
                return
            with open(out, "rb") as handle:
                oracle = sweep_csv if fmt == "csv" else sweep_json
                assert handle.read() == oracle(sweep(SweepSpec(**block))).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_out_give_the_same_bytes(self, tmp_path, capsysbinary, fmt):
        from wchip.cli import _ROWS_PER_WRITE

        table = sweep(_sweep(self.BLOCK, "sweep"))
        assert len(table.values) > _ROWS_PER_WRITE
        cfg = _write(tmp_path, "c.json", {"sweep": self.BLOCK})
        assert main(["sweep", "--config", cfg, "--format", fmt]) == 0
        printed = capsysbinary.readouterr().out
        out = tmp_path / f"out.{fmt}"
        assert main(["sweep", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == printed
        assert printed == (sweep_csv if fmt == "csv" else sweep_json)(table).encode()

    def test_out_dir_env_prefixes_a_relative_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WCHIP_OUT_DIR", str(tmp_path / "results"))
        cfg = _write(tmp_path, "c.json", {"sweep": {"r1": [0.4, 0.5], "r2": 0.5, "r3": 0.5}})
        assert main(["sweep", "--config", cfg, "--out", "nested/s.csv"]) == 0
        target = tmp_path / "results" / "nested" / "s.csv"
        assert target.read_text().startswith("r1,r2,r3,ad2_extinction,herald_probability\n")
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_directory_is_2(self, tmp_path, capsys, fmt):
        cfg = _write(tmp_path, "c.json", {"sweep": {"r1": [0.4, 0.5], "r2": 0.5, "r3": 0.5}})
        assert main(["sweep", "--config", cfg, "--format", fmt, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'out':")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failed_fock_check_leaves_no_file(self, tmp_path, monkeypatch, capsys, fmt):
        import wchip.optimize

        source_amplitudes = wchip.optimize._source_amplitudes

        def scaled(*args):
            rows = source_amplitudes(*args)
            return (*rows[:4], rows[4] * 1.001, rows[5])  # the ch 3 entry

        monkeypatch.setattr(wchip.optimize, "_source_amplitudes", scaled)
        cfg = _write(tmp_path, "c.json", {"sweep": self.BLOCK})
        out = tmp_path / "nested" / f"out.{fmt}"
        assert main(["sweep", "--config", cfg, "--format", fmt, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("internal error: RuntimeError: row engine disagrees")
        assert not (tmp_path / "nested").exists()

    def test_a_non_finite_value_is_refused_in_json_only(self, tmp_path, monkeypatch, capsys):
        import wchip.optimize

        # NaN on every cell but the checked one (r1 = 0.5), whose value the
        # in-run check compares with the Fock engine's
        herald_probability = wchip.optimize._herald_probability
        monkeypatch.setattr(
            wchip.optimize,
            "_herald_probability",
            lambda rows: np.where(rows[0] == 0.5, herald_probability(rows), math.nan),
        )
        checked = herald_objective(0.5, 0.5, 0.5)
        cfg = _write(tmp_path, "c.json", {"sweep": {"r1": [0.3, 0.4, 0.5], "r2": 0.5, "r3": 0.5}})
        out = tmp_path / "out.json"
        assert main(["sweep", "--config", cfg, "--format", "json", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("internal error: ValueError: Out of range float")
        assert not out.exists()
        with pytest.raises(ValueError):  # json.dumps refuses it too
            sweep_json(sweep(SweepSpec(r1=(0.3, 0.4, 0.5), r2=(0.5,), r3=(0.5,))))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1:3] == ["0.3,0.5,0.5,0.0,nan", "0.4,0.5,0.5,0.0,nan"]
        assert abs(float(lines[3].split(",")[-1]) - checked) <= 1e-12

    def test_a_cell_whose_squares_underflow_reads_one(self, tmp_path, capsys):
        block = {"r1": 0.5, "r2": 0.5, "r3": 3.5617438556386685e-160, "metric": "w_fidelity"}
        cfg = _write(tmp_path, "c.json", {"sweep": block})
        assert main(["sweep", "--config", cfg, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0.5,0.5,3.5617438556386685e-160,0.0,1.0"

    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    def test_a_checked_cell_that_underflows_is_a_named_error(self, tmp_path, capsys, metric):
        block = {"r1": 0.5, "r2": 1e-200, "r3": [1e-200], "metric": metric}
        cfg = _write(tmp_path, "c.json", {"sweep": block})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the T1 amplitudes of cell (0.5, 1e-200, 1e-200, 0.0) underflow")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "ad2_extinction"])
    def test_a_subnormal_axis_value_is_2(self, tmp_path, capsys, name):
        block = {"r1": 0.5, "r2": 0.5, "r3": 0.5, name: [0.0, 1e-310]}
        cfg = _write(tmp_path, "c.json", {"sweep": block})
        assert main(["sweep", "--config", cfg]) == 2
        assert "subnormal" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"canonical": OPT, "beta": 0.1, "zeta": 1})
        assert main(["simulate", "--config", cfg]) == 2
        assert "zeta" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 2

    def test_malformed_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_deeply_nested_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["simulate", "--config", str(path)]) == 2
        circ = tmp_path / "deep-circuit.json"
        circ.write_text("[" * 100_000 + "]" * 100_000)
        cfg = _write(tmp_path, "c.json", {"circuit_file": str(circ), "beta": 0.1})
        assert main(["simulate", "--config", cfg]) == 2
        assert "field 'circuit_file'" in capsys.readouterr().err

    def test_missing_beta_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"canonical": OPT})
        assert main(["simulate", "--config", cfg]) == 2
        assert "beta" in capsys.readouterr().err

    def test_both_circuit_styles_is_2(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.json",
            {"canonical": OPT, "circuit_file": "x.json", "beta": 0.1},
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_tomo_without_shots_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"state": "w"})
        assert main(["tomo", "--config", cfg]) == 2
        assert "shots" in capsys.readouterr().err

    def test_zero_shots_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"state": "w", "shots": 0})
        assert main(["tomo", "--config", cfg]) == 2

    def test_bad_canonical_parameter_is_2(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.json",
            {"canonical": {"r1": 1.7, "r2": 0.5, "r3": 0.5}, "beta": 0.1},
        )
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("field", ["r1", "r2", "r3"])
    @pytest.mark.parametrize("bad", [-0.1, 1.2])
    def test_a_bad_reflectivity_is_the_couplers_error(self, tmp_path, capsys, field, bad):
        cfg = _write(tmp_path, "c.json", {"canonical": {**OPT, field: bad}, "beta": 0.1})
        assert main(["herald", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: field 'canonical': reflectivity must lie in [0, 1], got {bad}\n"
        )

    def test_nonuniform_diagonals_is_3(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"state": "product_bbr", "shots": 1000})
        assert main(["tomo", "--config", cfg]) == 3
        assert "uniform" in capsys.readouterr().err

    def test_extra_key_in_a_range_object_is_2(self, tmp_path, capsys):
        axis = {"start": 0.2, "stop": 0.8, "num": 3, "nmu": 9}
        cfg = _write(tmp_path, "s.json", {"sweep": {"r1": axis, "r2": 0.5, "r3": 0.5}})
        assert main(["sweep", "--config", cfg]) == 2
        assert "nmu" in capsys.readouterr().err

    def test_oversized_sweep_is_4(self, tmp_path, capsys):
        axis = [round(0.1 + 0.005 * k, 6) for k in range(120)]
        cfg = _write(
            tmp_path, "c.json",
            {"sweep": {"r1": axis, "r2": axis, "r3": axis}},
        )
        assert main(["sweep", "--config", cfg]) == 4

    def test_circuit_file_not_found_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"circuit_file": str(tmp_path / "no.json"), "beta": 0.1})
        assert main(["simulate", "--config", cfg]) == 2

    def test_unknown_resonant_color_is_2(self, tmp_path, capsys):
        # the golden device with a misspelt router color, which once ran as Blue
        doc = _golden_device()
        doc["elements"][4]["resonant_color"] = "bogus"
        _write(tmp_path, "device.json", doc)
        cfg = _write(tmp_path, "c.json", {"circuit_file": str(tmp_path / "device.json")})
        assert main(["herald", "--config", cfg, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resonant_color" in captured.err

    def test_negative_diag_threshold_is_2(self, tmp_path, capsys):
        # a negative gate would abort every tomography run with exit 3
        cfg = _write(tmp_path, "c.json", {"state": "w", "shots": 1000, "diag_threshold": -1})
        assert main(["tomo", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'diag_threshold':")


class TestNumericFields:
    """Non-numeric or non-finite numbers are config errors (exit 2), and no
    document ever carries NaN."""

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("optimize", {"tol": "x"}, "tol"),
            ("optimize", {"tol": math.nan}, "tol"),
            ("optimize", {"grid_step": "x"}, "grid_step"),
            ("optimize", {"grid_bounds": [0.2, "x"]}, "grid_bounds"),
            ("tomo", {"state": "w", "shots": 1000, "w_threshold": "x"}, "w_threshold"),
            ("tomo", {"state": "w", "shots": 1000, "diag_threshold": "x"}, "diag_threshold"),
            ("simulate", {"canonical": OPT, "beta": math.nan}, "beta"),
            ("simulate", {"canonical": OPT, "beta": [0.1, math.inf]}, "beta"),
            ("simulate", {"canonical": {**OPT, "phi1": math.nan}, "beta": 0.1}, "canonical"),
            ("simulate", {"canonical": OPT, "beta": 1e200}, "beta"),
            ("simulate", {"canonical": OPT, "beta": [1e308, 1e308]}, "beta"),
            ("sweep", {"sweep": {"r1": [10**400], "r2": [0.5], "r3": [0.5]}}, "sweep.r1"),
            ("sweep", {"sweep": {"r1": 10**400, "r2": [0.5], "r3": [0.5]}}, "sweep.r1"),
            ("herald", {"canonical": {**OPT, "r2": math.nan}, "beta": 0.1}, "canonical.r2"),
        ],
    )
    def test_bad_number_is_2(self, tmp_path, capsys, command, doc, field):
        cfg = _write(tmp_path, "c.json", doc)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert field in err

    def test_nan_never_reaches_a_document(self, monkeypatch, capsys):
        from wchip import cli
        from wchip.optimize import OptimizationResult

        monkeypatch.setattr(
            cli, "maximize", lambda *a, **k: OptimizationResult(0.5, 0.5, 0.5, math.nan)
        )
        assert main(["optimize"]) == 1
        assert capsys.readouterr().out == ""


_CIRCUIT_DOC = {
    "channels": ["0", "1", "2"],
    "elements": [
        {"type": "coupler", "channels": ["0", "1"], "r": 0.5},
        {"type": "adddrop", "input": "1", "through": "2", "drop": "0"},
    ],
    "source": {"channel": "0", "beta": 0.1},
}


class TestMalformedCircuitFile:
    """A circuit file with a value of the wrong type or out of range is a
    config error naming ``circuit_file`` (exit 2), never an internal error
    or a generic failure (exit 1)."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("elements", 0), 3),
            (("elements", 0, "r"), "x"),
            (("elements", 1, "extinction"), "x"),
            (("phases",), [0.0, "x", 0.0]),
            (("source",), 3),
            (("elements", 0, "r"), 1.5),
            (("source", "channel"), "9"),
            (("source", "channel"), 0),
            (("source", "beta"), 10**400),
            (("elements", 0, "r"), True),
            (("elements", 1, "extintion"), 0.05),
            (("sourse",), {"channel": 0, "beta": 0.1}),
            (("channels",), "012"),
            (("channels",), ["0", 1, "2"]),
        ],
        ids=[
            "element-not-object",
            "coupler-r",
            "adddrop-extinction",
            "phases",
            "source",
            "coupler-r-out-of-range",
            "source-channel-unregistered",
            "source-channel-index",
            "source-beta-too-large-for-a-float",
            "coupler-r-boolean",
            "adddrop-unknown-key",
            "top-level-unknown-key",
            "registry-string",
            "registry-not-strings",
        ],
    )
    def test_is_2(self, tmp_path, capsys, path, value):
        doc = json.loads(json.dumps(_CIRCUIT_DOC))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = _write(tmp_path, "c.json", {"circuit_file": _write(tmp_path, "circ.json", doc)})
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'circuit_file':")

    def test_well_formed_file_runs(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.json", {"circuit_file": _write(tmp_path, "circ.json", _CIRCUIT_DOC)}
        )
        assert main(["simulate", "--config", cfg]) == 0


def _run_device(tmp_path, capsys, doc, *command):
    """Exit status and captured output of the CLI `command` run on the
    circuit file `doc`."""
    cfg = _write(tmp_path, "c.json", {"circuit_file": _write(tmp_path, "device.json", doc)})
    return main([*command, "--config", cfg]), capsys.readouterr()


def _herald_numbers(tmp_path, capsys, doc) -> list[float]:
    """Every number of the herald document of the circuit file `doc`."""
    status, captured = _run_device(tmp_path, capsys, doc, "herald")
    assert status == 0
    branches = json.loads(captured.out)["branches"]
    return [value for branch in ("T1", "T2") for value in branches[branch].values()]


def test_reordering_a_circuit_files_registry_keeps_both_branches(tmp_path, capsys):
    # Elements and the source name their channels, so swapping two registry
    # entries, with their phases, relabels the same device.  A source read
    # by index once moved to channel "1" here: P_T1 0.00637 instead of 0.0464.
    doc = _golden_device()
    original = _herald_numbers(tmp_path, capsys, doc)
    for key in ("channels", "phases"):
        doc[key][0], doc[key][1] = doc[key][1], doc[key][0]
    assert _herald_numbers(tmp_path, capsys, doc) == pytest.approx(original, rel=0, abs=1e-12)


def test_registry_permutations_give_the_document_or_name_a_detector(tmp_path, capsys):
    # The golden device's registry permuted with its phases is the same
    # device.  Each order gives the document of the unpermuted file byte for
    # byte, or exits 2 naming a detector that left its position; none exits
    # 0 with other numbers ("2" and "T1" swapped once read P_T1 0.0170).
    from wchip.circuit import CANONICAL_CHANNELS

    doc = _golden_device()
    status, original = _run_device(tmp_path, capsys, doc, "herald")
    assert status == 0
    n = len(doc["channels"])
    orders = [[1, 0, *range(2, n)]] + [random.Random(seed).sample(range(n), n) for seed in range(100)]
    same = 0
    for order in orders:
        permuted = {**doc, **{key: [doc[key][k] for k in order] for key in ("channels", "phases")}}
        status, captured = _run_device(tmp_path, capsys, permuted, "herald")
        if status == 0:
            assert captured.out == original.out
            same += 1
            continue
        assert status == 2
        name = re.search(r"detector channel '([^']+)' must sit at position", captured.err)[1]
        assert permuted["channels"].index(name) != CANONICAL_CHANNELS.index(name)
    assert same >= 1


def test_an_identity_coupler_keeps_the_documents(tmp_path, capsys):
    # A coupler with r = 0 is the identity, so inserting one at any
    # position on any channel pair is the same device: the herald document
    # keeps its bytes, and so does a sampled tomo document.
    doc = _golden_device()
    commands = [("herald",), ("tomo", "--shots", "4000", "--seed", "11")]
    original = {command: _run_device(tmp_path, capsys, doc, *command) for command in commands}
    for seed in range(100):
        rng = random.Random(seed)
        elements = list(doc["elements"])
        coupler = {"type": "coupler", "channels": rng.sample(doc["channels"], 2), "r": 0.0}
        elements.insert(rng.randint(0, len(elements)), coupler)
        for command in commands[: 2 if seed < 10 else 1]:
            run = _run_device(tmp_path, capsys, {**doc, "elements": elements}, *command)
            assert run == original[command]


def test_renaming_the_non_detector_channels_keeps_the_documents(tmp_path, capsys):
    # Elements and the source name their channels, so renaming every
    # channel that is not a detector throughout the file is the same
    # device: the herald and the sampled tomo documents keep their bytes.
    doc = _golden_device()
    names = {"0": "src", "1": "arm"}

    def rename(value):
        return [names.get(v, v) for v in value] if isinstance(value, list) else names.get(value, value)

    fields = ("channels", "input", "through", "drop")
    renamed = {
        **doc,
        "channels": rename(doc["channels"]),
        "elements": [{k: rename(v) if k in fields else v for k, v in e.items()} for e in doc["elements"]],
        "source": {**doc["source"], "channel": rename(doc["source"]["channel"])},
    }
    # an element or a source left on "0" or "1" would name no channel: exit 2
    assert renamed["channels"] == ["src", "arm", "2", "3", "4", "T1", "T2"]
    for command in (("herald",), ("tomo", "--shots", "4000", "--seed", "11")):
        original = _run_device(tmp_path, capsys, doc, *command)
        assert original[0] == 0
        assert _run_device(tmp_path, capsys, renamed, *command) == original


def test_scaling_beta_keeps_the_herald_numbers(tmp_path, capsys):
    # Only the double pair holds four photons, so beta enters every
    # heralding amplitude as the one factor beta**2 and each herald number,
    # a ratio inside that sector, is the same for any beta whose sector
    # weight stays a normal float (here |beta| from about 1e-7 to 0.4).
    doc = _golden_device()
    original = _herald_numbers(tmp_path, capsys, doc)
    beta = complex(*doc["source"]["beta"])
    for seed in range(20):
        rng = random.Random(seed)
        scaled = beta * 10 ** rng.uniform(-6, 0.7) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        source = {**doc["source"], "beta": [scaled.real, scaled.imag]}
        numbers = _herald_numbers(tmp_path, capsys, {**doc, "source": source})
        assert numbers == pytest.approx(original, rel=1e-12, abs=0)


def test_a_phase_on_a_herald_detector_keeps_the_herald_numbers(tmp_path, capsys):
    # The herald detectors count photons, so a path phase added on T1 or T2
    # moves no herald number by more than 1e-12 relative (not byte for
    # byte: P_T1 moves in its last digits).
    from wchip.circuit import T1_CHANNEL, T2_CHANNEL

    doc = _golden_device()
    original = _herald_numbers(tmp_path, capsys, doc)
    for seed in range(20):
        rng = random.Random(seed)
        phases = list(doc["phases"])
        phases[rng.choice((T1_CHANNEL, T2_CHANNEL))] += rng.uniform(-math.pi, math.pi)
        numbers = _herald_numbers(tmp_path, capsys, {**doc, "phases": phases})
        assert numbers == pytest.approx(original, rel=1e-12, abs=0)


def test_a_phase_on_a_herald_detector_of_random_canonical_devices(tmp_path, capsys):
    # The same relation drawn from 20 seeded canonical devices, each written
    # as a circuit file with its coupler phases, router extinction and a
    # complex beta.
    from wchip.circuit import SOURCE_CHANNEL, T1_CHANNEL, T2_CHANNEL, canonical_w_circuit, circuit_to_json_dict
    from wchip.elements import SourceSpec

    for seed in range(20):
        rng = random.Random(seed)
        r = [rng.uniform(0.05, 0.95) for _ in range(3)]
        phi = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
        spec = canonical_w_circuit(*r, *phi, ad2_extinction=rng.uniform(0.01, 0.5))
        beta = cmath.rect(rng.uniform(0.01, 0.4), rng.uniform(-math.pi, math.pi))
        doc = circuit_to_json_dict(spec, SourceSpec(SOURCE_CHANNEL, beta))
        assert "phases" not in doc  # the canonical device has none
        original = _herald_numbers(tmp_path, capsys, doc)
        assert len(original) == 6
        phases = [0.0] * len(doc["channels"])
        phases[rng.choice((T1_CHANNEL, T2_CHANNEL))] = rng.uniform(-math.pi, math.pi)
        numbers = _herald_numbers(tmp_path, capsys, {**doc, "phases": phases})
        assert numbers == pytest.approx(original, rel=1e-12, abs=0)


def test_a_phase_on_every_registry_channel_keeps_the_herald_numbers(tmp_path, capsys):
    # Registry phases act after the last element, and each heralding term of
    # a branch holds one photon on its herald channel h and one on each
    # signal channel, so every term of the branch gains the same factor
    # e^{i(phi_h + phi_2 + phi_3 + phi_4)}: a global phase, which no herald
    # number sees beyond rounding (not byte for byte).
    doc = _golden_device()
    original = _herald_numbers(tmp_path, capsys, doc)
    for seed in range(20):
        rng = random.Random(seed)
        phases = [rng.uniform(-math.pi, math.pi) for _ in doc["channels"]]
        numbers = _herald_numbers(tmp_path, capsys, {**doc, "phases": phases})
        assert numbers == pytest.approx(original, rel=1e-12, abs=0)


def _with_circuit_file(tmp_path, doc):
    """`doc`, with a ``"source"`` entry moved into a circuit file's source."""
    if "source" not in doc:
        return doc
    circuit = {**_CIRCUIT_DOC, "source": {**_CIRCUIT_DOC["source"], **doc["source"]}}
    return {"circuit_file": _write(tmp_path, "circ.json", circuit)}


class TestCounts:
    """Counts too large for the C samplers, or not integers, are config
    errors (exit 2)."""

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("tomo", {"state": "w", "shots": 2.9}, "shots"),
            ("tomo", {"state": "w", "shots": 1000, "seed": 1.9}, "seed"),
            ("simulate", {"canonical": OPT, "beta": 0.1, "max_order": 2.7}, "max_order"),
            (
                "sweep",
                {"sweep": {"r1": {"start": 0.4, "stop": 0.5, "num": 2.7}, "r2": 0.5, "r3": 0.5}},
                "sweep.r1.num",
            ),
            ("sweep", {"sweep": {"r1": 0.5, "r2": 0.5, "r3": 0.5, "cell_cap": 2.5}}, "sweep.cell_cap"),
            ("simulate", {"source": {"max_order": 2.7}}, "source.max_order"),
        ],
    )
    def test_non_integral_count_is_2(self, tmp_path, capsys, command, doc, field):
        cfg = _write(tmp_path, "c.json", _with_circuit_file(tmp_path, doc))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"field {field!r}: expected an integer" in err

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("tomo", {"state": "w", "shots": 3000.0, "seed": 3.0}),
            ("simulate", {"canonical": OPT, "beta": 0.1, "max_order": 2.0}),
            (
                "sweep",
                {"sweep": {"r1": {"start": 0.4, "stop": 0.5, "num": 3.0}, "r2": 0.5, "r3": 0.5,
                           "cell_cap": 3.0}},
            ),
            ("simulate", {"source": {"max_order": 2.0}}),
        ],
    )
    def test_integral_float_count_runs(self, tmp_path, capsys, command, doc):
        cfg = _write(tmp_path, "c.json", _with_circuit_file(tmp_path, doc))
        assert main([command, "--config", cfg]) == 0

    def test_overflowing_shots_in_config_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"state": "w", "shots": 1e30})
        assert main(["tomo", "--config", cfg]) == 2
        assert "shots" in capsys.readouterr().err

    def test_overflowing_shots_flag_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"state": "w"})
        assert main(["tomo", "--config", cfg, "--shots", "100000000000000000000000"]) == 2
        assert "shots" in capsys.readouterr().err

    def test_largest_int64_shots_runs(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"state": "w", "shots": 2**63 - 1})
        assert main(["tomo", "--config", cfg]) == 0

    def test_non_numeric_cell_cap_is_2(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.json",
            {"sweep": {"r1": [0.5], "r2": [0.5], "r3": [0.5], "cell_cap": "x"}},
        )
        assert main(["sweep", "--config", cfg]) == 2
        assert "cell_cap" in capsys.readouterr().err


class TestStrictValues:
    """A boolean, a numeric string or null is never read as a number, a
    format or a path: each is a config error naming the field (exit 2)."""

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("herald", {"canonical": OPT, "beta": 0.1, "format": False}, "format"),
            ("herald", {"canonical": OPT, "beta": 0.1, "format": ""}, "format"),
            ("herald", {"canonical": OPT, "beta": 0.1, "format": None}, "format"),
            ("herald", {"canonical": OPT, "beta": 0.1, "out": None}, "out"),
            ("herald", {"canonical": OPT, "beta": 0.1, "circuit_file": None}, "circuit_file"),
            ("tomo", {"state": "w", "shots": True}, "shots"),
            ("simulate", {"canonical": OPT, "beta": True}, "beta"),
            ("optimize", {"tol": True}, "tol"),
            ("optimize", {"tol": "1e-4"}, "tol"),
        ],
    )
    def test_is_2(self, tmp_path, capsys, command, doc, field):
        cfg = _write(tmp_path, "c.json", doc)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: field {field!r}:")


class TestGridBounds:
    """The optimize scan stops at the last grid point not past the upper
    bound, even when the step does not divide the bounds."""

    def test_step_past_one_runs(self, tmp_path, capsys):
        # 0.2 + 3 * 0.3 = 1.1 would leave the unit cube
        cfg = _write(tmp_path, "o.json", {"grid_step": 0.3, "grid_bounds": [0.2, 1.0]})
        assert main(["optimize", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(3 / 64, abs=1e-6)

    def test_scan_stays_inside_the_bounds(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        import wchip.optimize

        scanned = []
        source_amplitudes = wchip.optimize._source_amplitudes

        def recorded(*cell):
            if any(np.ndim(v) for v in cell):  # grid slabs; simplex points are scalars
                scanned.extend(np.ravel(v) for v in cell)
            return source_amplitudes(*cell)

        monkeypatch.setattr(wchip.optimize, "_source_amplitudes", recorded)
        # 0.2 + 2 * 0.3 = 0.8 lies past 0.7
        cfg = _write(tmp_path, "o.json", {"grid_step": 0.3, "grid_bounds": [0.2, 0.7]})
        assert main(["optimize", "--config", cfg]) == 0
        values = np.concatenate(scanned)
        assert values.size
        assert values.min() == 0.2
        assert values.max() <= 0.7
        assert sorted(set(values.tolist())) == [0.2, 0.5]


class TestUnreadableOrMistypedFields:
    """Paths of the wrong type, directories, files that are not UTF-8 and
    non-numeric canonical parameters are config errors naming the field
    (exit 2), never internal errors."""

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("circuit_file", {"circuit_file": 5, "beta": 0.1}),
            ("out", {"canonical": OPT, "beta": 0.1, "out": 5}),
        ],
    )
    def test_numeric_path_is_2(self, tmp_path, capsys, field, doc):
        cfg = _write(tmp_path, "c.json", doc)
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: field {field!r}:")

    def test_config_directory_is_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: --config:")

    def test_circuit_file_directory_is_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"circuit_file": str(tmp_path), "beta": 0.1})
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'circuit_file':")

    def test_out_directory_is_2(self, tmp_path, capsys, sim_config):
        assert main(["simulate", "--config", sim_config, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'out':")

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"state": "w", "shots": 10, "seed": "\xff"}')
        assert main(["tomo", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: --config:")

    def test_circuit_file_not_utf8_is_2(self, tmp_path, capsys):
        circ = tmp_path / "circ.json"
        circ.write_bytes(b'{"channels": ["\xff"]}')
        cfg = _write(tmp_path, "c.json", {"circuit_file": str(circ), "beta": 0.1})
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'circuit_file':")

    @pytest.mark.parametrize("key, value", [("r1", None), ("phi1", [1])])
    def test_non_numeric_canonical_field_is_2(self, tmp_path, capsys, key, value):
        cfg = _write(tmp_path, "c.json", {"canonical": {**OPT, key: value}, "beta": 0.1})
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: field 'canonical.{key}':")


class TestGridsAreSizedBeforeBuilding:
    """A grid too large for its cap is rejected from the axis lengths alone,
    so an enormous count returns at once instead of exhausting memory."""

    def test_sweep_range_of_a_trillion_points_is_4(self, tmp_path, capsys):
        huge = {"start": 0.1, "stop": 0.9, "num": 1e12}
        cfg = _write(tmp_path, "c.json", {"sweep": {"r1": huge, "r2": [0.5], "r3": [0.5]}})
        assert main(["sweep", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert "grid has 1000000000000 cells, exceeding the cap of 1000000" in err

    def test_sweep_axes_are_sized_together(self, tmp_path, capsys):
        axis = {"start": 0.1, "stop": 0.9, "num": 101}
        cfg = _write(tmp_path, "c.json", {"sweep": {"r1": axis, "r2": axis, "r3": axis}})
        assert main(["sweep", "--config", cfg]) == 4
        assert "grid has 1030301 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [1e-9, 5e-324, 0.01])
    def test_fine_optimize_grid_is_2(self, tmp_path, capsys, step):
        # 0.01 over [0, 1] is 101 points per axis, just past 10**6 cells
        cfg = _write(tmp_path, "o.json", {"grid_step": step, "grid_bounds": [0.0, 1.0]})
        assert main(["optimize", "--config", cfg]) == 2
        assert "more than 1000000 cells" in capsys.readouterr().err

    def test_one_cap_for_sweeps_and_the_scan(self):
        from wchip.optimize import CELL_CAP, SweepSpec, maximize

        assert SweepSpec(r1=(0.5,), r2=(0.5,), r3=(0.5,)).cell_cap == CELL_CAP == 10**6
        with pytest.raises(ParamOutOfRange):
            maximize(1e-4, grid_step=1e-9)


class TestParser:
    def test_config_is_required_except_for_optimize(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        assert "required: --config" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("simulate", "herald", "tomo", "optimize", "sweep"):
            assert command in out


def test_import_does_not_load_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wchip

    src = str(Path(wchip.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wchip, wchip.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_circuit_file_beta_override(tmp_path, capsys):
    from wchip import SourceSpec, canonical_w_circuit
    from wchip.circuit import circuit_to_json_dict

    circ = tmp_path / "circ.json"
    circ.write_text(json.dumps(circuit_to_json_dict(canonical_w_circuit(**OPT), SourceSpec(0, 0.05))))
    cfg = _write(tmp_path, "c.json", {"circuit_file": str(circ), "beta": 0.2})
    assert main(["simulate", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta"]["re"] == pytest.approx(0.2)


@pytest.mark.parametrize(
    "file_order, config",
    [(2, {"max_order": 1}), (1, {"beta": 0.1})],
    ids=["config-max-order-over-file-beta", "file-max-order-under-config-beta"],
)
def test_circuit_file_source_and_config_merge_field_by_field(tmp_path, capsys, file_order, config):
    # a max_order of 1 leaves no double pair, so nothing heralds, whichever
    # side gives it and whichever gives beta
    from wchip import SourceSpec, canonical_w_circuit
    from wchip.circuit import circuit_to_json_dict

    circ = tmp_path / "circ.json"
    source = SourceSpec(0, 0.05, max_order=file_order)
    circ.write_text(json.dumps(circuit_to_json_dict(canonical_w_circuit(**OPT), source)))
    cfg = _write(tmp_path, "c.json", {"circuit_file": str(circ), **config})
    assert main(["herald", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["branches"]["T1"]["probability"] == 0.0


def test_console_script_is_installed():
    import shutil
    import subprocess

    exe = shutil.which("wchip")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_readme_config_block_lists_every_key():
    import re
    from pathlib import Path

    from wchip.cli import _CANONICAL, _FIELDS, _RANGE, _SWEEP

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    documented = set(re.findall(r'"(\w+)"\s*:', block))
    assert documented == {*_FIELDS, *_CANONICAL, *_SWEEP, *_RANGE}


def test_readme_library_example_prints_what_it_says(capsys):
    # the one user-facing code no other test runs; it calls three entry
    # points whose arguments are read by the wchip.errors readers
    import ast
    import itertools
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    probability, distribution, coefficients = capsys.readouterr().out.splitlines()
    assert float(probability) == pytest.approx(3 / 64, rel=0, abs=1e-15)
    distribution = ast.literal_eval(distribution)
    assert sorted(distribution) == sorted(map("".join, itertools.product("BR", repeat=3)))
    for pattern, p in distribution.items():
        assert p == pytest.approx(1 / 3 if pattern in ("BBR", "BRB", "RBB") else 0.0, rel=0, abs=1e-15)
    assert coefficients == "{'a': 0.333, 'b': 0.333, 'c': 0.333}"


def test_blocks_are_read_through_wrapped_functions(monkeypatch, capsys, sim_config):
    # perfbench/tracing.py replaces module functions with (*args, **kwargs)
    # wrappers; the canonical block's keys must not come from the wrapper
    from wchip import cli

    original = cli.canonical_w_circuit
    monkeypatch.setattr(cli, "canonical_w_circuit", lambda *a, **k: original(*a, **k))
    assert main(["simulate", "--config", sim_config]) == 0
    assert json.loads(capsys.readouterr().out)["fidelity_W_T1"] == pytest.approx(1.0)

