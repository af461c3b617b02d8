"""Golden CLI corpus: every command's document, compared byte for byte.

Each case runs one command on a small config from ``tests/golden`` (non-zero
phases, router extinction, a circuit file, both sweep metrics) in both
output formats.  One rule holds for all 36 documents: the bytes equal those
in ``tests/golden/expected``, so a change to any number's last bit, to term
order or to formatting shows here.  Regenerate an expected document only for
a deliberate change of output, and list it in the change log.

The rule holds on every host numpy's SIMD dispatch can pick: the corpus is
written once more in a child process with each of numpy's dispatch targets
above its baseline disabled (``NPY_DISABLE_CPU_FEATURES``), and must give the
same bytes.  BLAS kernels are not varied: three ``tomo`` documents still
hinge on OpenBLAS's choice of kernel.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wchip
from wchip.cli import main

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

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
    ("optimize-tight", "optimize", "optimize_tight.json", ()),
    ("sweep-herald", "sweep", "sweep_herald.json", ()),
    ("sweep-fidelity", "sweep", "sweep_fidelity.json", ()),
)
FORMATS = ("json", "csv")
DOCUMENTS = tuple(f"{case[0]}.{fmt}" for case in CASES for fmt in FORMATS)


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
    assert out.read_bytes() == (GOLDEN / "expected" / f"{name}.{fmt}").read_bytes()


def test_documents_are_byte_identical_on_numpy_baseline_loops(tmp_path):
    """Every dispatch target this numpy has and this host runs is disabled,
    so the child takes the loops of numpy's baseline (on x86-64, no AVX2 or
    AVX-512); each of its documents must equal the expected bytes."""
    disabled = [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)]
    env = {key: value for key, value in os.environ.items() if key != "WCHIP_OUT_DIR"}
    src = str(Path(wchip.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    subprocess.run(
        [sys.executable, __file__, str(tmp_path)], cwd=GOLDEN, env=env, check=True, timeout=120
    )
    expected = GOLDEN / "expected"
    assert [
        doc for doc in DOCUMENTS if (tmp_path / doc).read_bytes() != (expected / doc).read_bytes()
    ] == []


if __name__ == "__main__":  # the child of the test above: every document into argv[1]
    statuses = [
        run_case(command, config, flags, fmt, Path(sys.argv[1]) / f"{name}.{fmt}")
        for name, command, config, flags in CASES
        for fmt in FORMATS
    ]
    sys.exit(max(statuses))
