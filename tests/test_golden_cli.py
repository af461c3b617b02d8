"""Golden CLI corpus: every command's document, compared byte for byte.

Each case runs one command on a small config from ``tests/golden`` (non-zero
phases, router extinction, a circuit file, both sweep metrics) in both
output formats and compares the bytes with ``tests/golden/expected``.  The
expected documents were written by this same manifest on the code before the
sparse kernel was rewritten around integer keys (``tomo-w`` before the
herald classifier was rewritten around one term table, and
``simulate-circuit-beta`` and ``tomo-thresholds`` before the config reader
was rewritten around one field table), so a change to any
amplitude's last bit, to term order, or to formatting shows here.  Regenerate
them only for a deliberate change of output, and say so in the change log.
"""

from pathlib import Path

import pytest

from wchip.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (case name, command, config file in tests/golden or None, extra flags)
CASES = (
    ("simulate-phases", "simulate", "phases.json", ()),
    ("simulate-extinction", "simulate", "extinction.json", ()),
    ("simulate-circuit", "simulate", "circuit.json", ()),
    ("simulate-circuit-beta", "simulate", "circuit_beta.json", ()),
    ("herald-phases", "herald", "phases.json", ()),
    ("herald-extinction", "herald", "extinction.json", ()),
    ("herald-circuit", "herald", "circuit.json", ()),
    ("tomo-phases", "tomo", "phases.json", ("--shots", "4000", "--seed", "7")),
    ("tomo-extinction", "tomo", "extinction.json", ("--shots", "4000", "--seed", "8")),
    ("tomo-circuit", "tomo", "circuit.json", ("--shots", "4000", "--seed", "11")),
    ("tomo-rho_b", "tomo", "rho_b.json", ()),
    ("tomo-w", "tomo", "w.json", ()),
    ("tomo-thresholds", "tomo", "tomo_thresholds.json", ()),
    ("optimize-default", "optimize", None, ()),
    ("optimize-small", "optimize", "optimize_small.json", ()),
    ("sweep-herald", "sweep", "sweep_herald.json", ()),
    ("sweep-fidelity", "sweep", "sweep_fidelity.json", ()),
)
FORMATS = ("json", "csv")


def run_case(command, config, flags, fmt, out) -> int:
    """Run one case with its output written to `out`; the working directory
    must be ``tests/golden`` so the circuit file path resolves."""
    argv = [command, "--format", fmt, "--out", str(out), *flags]
    if config is not None:
        argv += ["--config", config]
    return main(argv)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "name, command, config, flags", CASES, ids=[case[0] for case in CASES]
)
def test_document_is_byte_identical(tmp_path, monkeypatch, name, command, config, flags, fmt):
    monkeypatch.delenv("WCHIP_OUT_DIR", raising=False)
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / f"{name}.{fmt}"
    assert run_case(command, config, flags, fmt, out) == 0
    expected = (GOLDEN / "expected" / f"{name}.{fmt}").read_bytes()
    assert out.read_bytes() == expected
