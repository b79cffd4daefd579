"""Golden CLI payloads: full stdout, stderr and exit code of fixed specs.

Each case of ``golden/cases.json`` runs one command in-process.  Its stdout,
with the result document's ``timing_ms`` line removed, must equal
``golden/<name>.out`` byte for byte, and its exit code and stderr must equal
the entry in ``golden/expected.json``.  The cases cover every command, the CSV
format, the theta oracle, an invalid spec, and the witnesses of a
non-nilpotent charge, of an oracle mismatch and of an unstable x_0 cap.

    PYTHONPATH=src python tests/test_golden.py --record

rewrites the expected files from the current tree.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from chiralg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _run(case, spec_path, capture):
    """(exit code, stdout without its timing line, stderr) of one case."""
    spec_path.write_text(json.dumps(case["spec"]))
    code = main([case["command"], "--spec", str(spec_path), *case["args"]])
    out, err = capture()
    lines = out.splitlines(keepends=True)
    out = "".join(line for line in lines if not line.startswith('  "timing_ms": '))
    return code, out, err


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_payload(case, tmp_path, capsys):
    expected = json.loads((GOLDEN / "expected.json").read_text())[case["name"]]
    capsys.readouterr()

    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err

    code, out, err = _run(case, tmp_path / "spec.json", capture)
    assert (code, err) == (expected["exit_code"], expected["stderr"])
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


# every case whose command counts a torus window without a differential
COUNTING = [
    c for c in CASES
    if c["command"] in ("char", "theta-check")
    or (c["command"] == "basis" and "x0_cap" not in c["spec"].get("caps", {}))
]


def test_counting_commands_run_no_odometer(tmp_path, capsys, monkeypatch):
    """``char``, ``theta-check`` and torus ``basis`` place the x_0 letters by
    the sweep alone: with ``fock._x0_odometer`` made to raise, each of
    their golden cases still gives its golden output."""
    import chiralg.fock as fock

    def refuse(*args):
        raise AssertionError("the counting path ran the x_0 odometer")

    monkeypatch.setattr(fock, "_x0_odometer", refuse)
    expected = json.loads((GOLDEN / "expected.json").read_text())
    assert {c["command"] for c in COUNTING} == {"basis", "char", "theta-check"}
    for case in COUNTING:
        capsys.readouterr()

        def capture():
            captured = capsys.readouterr()
            return captured.out, captured.err

        code, out, err = _run(case, tmp_path / "spec.json", capture)
        want = expected[case["name"]]
        assert (code, err) == (want["exit_code"], want["stderr"]), case["name"]
        assert out == (GOLDEN / f"{case['name']}.out").read_text(), case["name"]


def _record():
    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, text, stderr = _run(
                    case,
                    Path(tmp) / "spec.json",
                    lambda: (out.getvalue(), err.getvalue()),
                )
            (GOLDEN / f"{case['name']}.out").write_text(text)
            expected[case["name"]] = {"exit_code": code, "stderr": stderr}
    (GOLDEN / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
