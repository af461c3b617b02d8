"""End-to-end tests of the command-line driver: exit codes, output formats,
flag/config precedence, and byte-level determinism."""

import json
import math

import pytest

from wchip.cli import main
from wchip.errors import ParamOutOfRange

OPT = {"r1": 0.5, "r2": 1 / math.sqrt(3), "r3": 1 / math.sqrt(2)}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_nonuniform_diagonals_is_3(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"state": "product_bbr", "shots": 1000})
        assert main(["tomo", "--config", cfg]) == 3
        assert "uniform" in capsys.readouterr().err

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
    "source": {"channel": 0, "beta": 0.1},
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
            (("source", "channel"), 9),
            (("source", "beta"), 10**400),
        ],
        ids=[
            "element-not-object",
            "coupler-r",
            "adddrop-extinction",
            "phases",
            "source",
            "coupler-r-out-of-range",
            "source-channel-unregistered",
            "source-beta-too-large-for-a-float",
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


class TestCounts:
    """Counts too large for the C samplers, or not integers, are config
    errors (exit 2)."""

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
        batch = wchip.optimize.herald_objective_batch

        def recorded(*cell):
            if any(np.ndim(v) for v in cell):  # grid slabs; simplex points are scalars
                scanned.extend(np.ravel(v) for v in cell)
            return batch(*cell)

        monkeypatch.setattr(wchip.optimize, "herald_objective_batch", recorded)
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
    from wchip import SourceSpec, canonical_w_circuit, save_circuit

    circ = tmp_path / "circ.json"
    save_circuit(circ, canonical_w_circuit(**OPT), SourceSpec(0, 0.05))
    cfg = _write(tmp_path, "c.json", {"circuit_file": str(circ), "beta": 0.2})
    assert main(["simulate", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta"]["re"] == pytest.approx(0.2)


def test_console_script_is_installed():
    import shutil
    import subprocess

    exe = shutil.which("wchip")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
