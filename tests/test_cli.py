"""Batch front-end: spec validation, exit codes, payload determinism."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as hst

from chiralg.cli import LEDGER_HASH, MAX_Z_WINDOW, ProblemSpec, SpecError, main
from chiralg.modfun import polynomial_zero_modes

SL2 = {"dim": 3, "c": [[3, 1, 2, "1"], [1, 3, 1, "2"], [2, 3, 2, "-2"]]}
BAD_JACOBI = {"dim": 3, "c": [[3, 1, 2, "1"], [1, 3, 1, "2"], [2, 3, 2, "-1"]]}


def run(tmp_path, command, spec, *args):
    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "out.json"
    spec_path.write_text(json.dumps(spec))
    code = main([command, "--spec", str(spec_path), "--out", str(out_path), *args])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def test_theta_check_passes(tmp_path):
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [3]}]},
        "caps": {"q_max": 4, "weight_max": 4, "z_window": [-10, 4]},
    }
    code, text = run(tmp_path, "char", spec)
    assert code == 0
    doc = json.loads(text)
    assert doc["payload"]["series"]["rows"]["0"] == {"-2": "-1", "-1": "-1"}
    code, text = run(tmp_path, "theta-check", spec)
    assert code == 0
    assert json.loads(text)["payload"]["equal"] is True
    # the default torus weights, given explicitly
    spec["torus_weights"] = {"x": [1], "phi": [-2]}
    code, text = run(tmp_path, "theta-check", spec)
    assert code == 0
    assert json.loads(text)["payload"]["equal"] is True


def test_theta_check_refuses_other_sides_and_dims(tmp_path, capsys):
    # the closed form is the one-variable, omega-side character, graded by
    # the default torus weights: these specs would otherwise exit 1 with a
    # false witness (x = 2, phi = -4 spaces the series in z^2 steps)
    def potential(*exps):
        return {"terms": [{"coeff": "1", "exps": list(e)} for e in exps]}

    cases = [
        ({"dim": 1, "side": "theta", "potential": potential([3])}, "spec.side"),
        ({"dim": 2, "side": "omega", "potential": potential([1, 1])}, "spec.dim"),
        ({"dim": 2, "side": "omega", "potential": potential([3, 0], [0, 3])}, "spec.dim"),
        (
            {
                "dim": 1,
                "side": "omega",
                "potential": potential([3]),
                "torus_weights": {"x": [2], "phi": [-4]},
            },
            "spec.torus_weights",
        ),
    ]
    for spec, field in cases:
        spec["caps"] = {"q_max": 2, "weight_max": 2, "z_window": [-6, 3]}
        code, _ = run(tmp_path, "theta-check", spec)
        assert code == 2, spec
        assert field in capsys.readouterr().err


def test_flags_refused_where_ignored(tmp_path, capsys):
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
        "caps": {"weight_max": 1, "x0_cap": 2, "q_max": 1, "z_window": [-3, 1]},
    }
    for command, flag in (
        ("anticommute", ["--format", "csv"]),
        ("basis", ["--format", "csv"]),
        ("theta-check", ["--format", "csv"]),
        ("cohomology", ["--oracle", "theta"]),
        ("char", ["--oracle", "theta"]),
    ):
        code, _ = run(tmp_path, command, spec, *flag)
        assert code == 2, (command, flag)
        assert "error:" in capsys.readouterr().err


def test_nilpotency_sl2(tmp_path):
    spec = {"dim": 3, "lie": SL2, "caps": {"weight_max": 3}}
    code, text = run(tmp_path, "nilpotency", spec)
    assert code == 0
    assert json.loads(text)["payload"]["nilpotent"] is True


def test_nilpotency_jacobi_violation_witnessed(tmp_path):
    spec = {"dim": 3, "lie": BAD_JACOBI, "caps": {"weight_max": 1}}
    code, text = run(tmp_path, "nilpotency", spec)
    assert code == 1
    payload = json.loads(text)["payload"]
    assert payload["nilpotent"] is False
    assert "witness" in payload and payload["witness"]["square"]


def test_nilpotency_refuses_a_diagonal_lie_entry(tmp_path, capsys):
    # c^1_{11} = 1 cannot be antisymmetrised: nilpotency skips only the
    # Jacobi check, so it refuses the spec as the other commands do
    spec = {"dim": 2, "lie": {"dim": 2, "c": [[1, 1, 1, "1"]]},
            "caps": {"weight_max": 1, "x0_cap": 1}}
    for command in ("nilpotency", "cohomology", "basis"):
        code, text = run(tmp_path, command, spec)
        assert (code, text) == (2, ""), command
        err = capsys.readouterr().err
        assert err == "error: spec.lie: antisymmetry fails at c^1_{11}\n", command


def test_invalid_specs_exit_2(tmp_path, capsys):
    x2 = {"dim": 1, "side": "omega", "potential": {"terms": [{"coeff": "1", "exps": [2]}]}}
    cases = [
        ("basis", {}),  # missing dim
        ("basis", {"dim": 1, "side": "sideways"}),
        ("basis", {"dim": 1, "potential": {"terms": [{"coeff": 0.5, "exps": [2]}]}}),
        ("basis", {"dim": 2, "lie": SL2}),  # lie.dim != dim
        ("basis", {"dim": 3, "lie": BAD_JACOBI}),  # Jacobi enforced outside 'nilpotency'
        ("basis", {"dim": 1, "caps": {"weight_max": -1}}),
        # JSON booleans are not integers, wherever an integer list is read
        ("char", dict(x2, caps={"q_max": 1, "z_window": [False, True]})),
        (
            "cohomology",
            dict(x2, side="theta", torus_weights={"x": [True], "phi": [-2]},
                 caps={"weight_max": 0, "z_window": [-2, 2]}),
        ),
        (
            "nilpotency",
            {"dim": 3, "lie": {"dim": 3, "c": [[3, True, 2, "1"]] + SL2["c"][1:]},
             "caps": {"weight_max": 0}},
        ),
        # a second row for one k and pair {i, j} would overwrite the first
        *(
            ("nilpotency",
             {"dim": 3, "lie": {"dim": 3, "c": SL2["c"] + [row]}, "caps": {"weight_max": 1}})
            for row in ([3, 2, 1, "1"], [3, 1, 2, "2"])
        ),
        # psi weights can only be those of phi negated, as integers; without
        # psi this spec exits 0
        *(
            (
                "cohomology",
                dict(x2, side="theta", torus_weights={"x": [1], "phi": [-1], "psi": psi},
                     caps={"weight_max": 0, "z_window": [-2, 2]}),
            )
            for psi in ([2], [1, 1], [1.0], [True], ["1"])
        ),
        # a non-integer phi weight is refused before psi is compared with -phi
        (
            "cohomology",
            dict(x2, side="theta", torus_weights={"x": [1], "phi": ["a"]},
                 caps={"weight_max": 0, "z_window": [-2, 2]}),
        ),
    ]
    for command, spec in cases:
        code, _ = run(tmp_path, command, spec)
        assert code == 2, spec
        assert "error:" in capsys.readouterr().err


def test_unreadable_spec_exits_2(tmp_path, capsys):
    assert main(["basis", "--spec", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # undecodable bytes, an integer literal over Python's 4300-digit limit,
    # and nesting deeper than the recursion limit
    for name, data in (
        ("bom.json", b"\xff\xfe{}"),
        ("digits.json", b'{"dim": ' + b"1" * 5000 + b"}"),
        ("nested.json", b"[" * 200_000),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["basis", "--spec", str(path)]) == 2, name
        assert "error: cannot read spec" in capsys.readouterr().err


def test_exponent_notation_exits_2_quickly(tmp_path, capsys):
    """Fraction("1e999999999") would build 10^999999999; a coefficient and a
    zero-mode entry in exponent notation are refused before any of that."""
    coeff = {
        "dim": 1,
        "potential": {"terms": [{"coeff": "1e10000000", "exps": [2]}]},
        "caps": {"weight_max": 0, "x0_cap": 1},
    }
    zero_modes = {
        "labels": ["1"], "degrees": [0], "parities": [0], "cap": 0,
        "actions": {name: [["0"]] for name in ("x0", "y0", "phi0", "psi0")},
    }
    zero_modes["actions"]["x0"] = [["1e999999999"]]
    entry = {"dim": 1, "zero_modes": zero_modes, "caps": {"weight_max": 0}}
    for command, spec, field in (
        ("nilpotency", coeff, "spec.potential.terms[0].coeff"),
        ("singular", entry, "spec.zero_modes.actions.x0[0][0]"),
    ):
        start = time.monotonic()
        code, _ = run(tmp_path, command, spec)
        assert code == 2 and time.monotonic() - start < 5, command
        assert field in capsys.readouterr().err


def test_torus_weights_psi_equal_to_minus_phi_is_accepted(tmp_path):
    """The refusals of other psi values are cases of test_invalid_specs_exit_2."""
    spec = {
        "dim": 1,
        "potential": {"terms": [{"coeff": "1", "exps": [3]}]},
        "torus_weights": {"x": [1], "phi": [-2]},
        "caps": {"weight_max": 1, "z_window": [-2, 2]},
    }
    code, text = run(tmp_path, "cohomology", spec)
    assert code == 0
    payload = json.loads(text)["payload"]
    spec["torus_weights"]["psi"] = [2]
    code, text = run(tmp_path, "cohomology", spec)
    assert code == 0 and json.loads(text)["payload"] == payload


def test_cohomology_commands_need_a_regime(tmp_path, capsys):
    """Torus weights without a z window, or a window without torus weights,
    choose neither regime."""
    x3 = {"dim": 1, "potential": {"terms": [{"coeff": "1", "exps": [3]}]}}
    for spec in (
        dict(x3, caps={"weight_max": 1}),
        dict(x3, caps={"weight_max": 1, "z_window": [-2, 2]}),
        dict(x3, caps={"weight_max": 1}, torus_weights={"x": [1], "phi": [-2]}),
    ):
        for command in ("cohomology", "chi-van"):
            code, text = run(tmp_path, command, spec)
            assert code == 2 and text == "", (command, spec)
            err = capsys.readouterr().err
            assert "spec.caps: need x0_cap, or torus_weights with z_window" in err


def test_payload_determinism(tmp_path):
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
        "caps": {"q_max": 3, "weight_max": 3, "z_window": [-6, 3]},
    }
    payloads = []
    for _ in range(2):
        code, text = run(tmp_path, "char", spec)
        assert code == 0
        doc = json.loads(text)
        payloads.append(json.dumps(doc["payload"], sort_keys=True))
        assert doc["conventions_sha256"] == LEDGER_HASH
    assert payloads[0] == payloads[1]


def test_no_floats_in_output(tmp_path):
    capped = {
        "dim": 1,
        "side": "theta",
        "potential": {"terms": [{"coeff": "3/2", "exps": [2]}]},
        "caps": {"weight_max": 1, "x0_cap": 2},
    }
    # torus cohomology of sl2 sits in negative degrees, odd and even
    torus = {
        "dim": 3,
        "lie": SL2,
        "torus_weights": {"x": [1, 1, 1], "phi": [0, 0, 0]},
        "caps": {"weight_max": 0, "z_window": [0, 1]},
    }

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    for spec in (capped, torus):
        code, text = run(tmp_path, "cohomology", spec)
        assert code == 0
        walk(json.loads(text)["payload"])


def test_cohomology_csv_format(tmp_path):
    spec = {
        "dim": 1,
        "side": "theta",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
        "caps": {"weight_max": 1, "x0_cap": 2, "q_max": 1, "z_window": [-2, 2]},
    }
    for command, header, row in (
        ("cohomology", "weight,degree,dim,stable", "0,0,1,1"),
        ("char", "q,z,coeff", "0,0,1"),
    ):
        code, text = run(tmp_path, command, spec, "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == header
        assert row in lines


def test_chi_van_with_theta_oracle(tmp_path):
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
        "caps": {"weight_max": 2, "x0_cap": 2},
    }
    code, text = run(tmp_path, "chi-van", spec, "--oracle", "theta")
    assert code == 0
    payload = json.loads(text)["payload"]
    assert payload["oracle_rows"] == {"0": -1, "1": 0, "2": 0}
    assert payload["series"]["rows"]["0"] == {"0": "-1"}
    # the closed form is the omega-side character; a theta-side spec is refused
    theta_side = dict(spec, side="theta", caps={"weight_max": 2, "x0_cap": 4})
    theta_side["potential"] = {"terms": [{"coeff": "1", "exps": [3]}]}
    code, text = run(tmp_path, "chi-van", theta_side, "--oracle", "theta")
    assert code == 2
    # so is a two-variable one: f = xy has Euler number +1 at q^0, not -1
    two_vars = dict(spec, dim=2, caps={"weight_max": 0, "x0_cap": 2})
    two_vars["potential"] = {"terms": [{"coeff": "1", "exps": [1, 1]}]}
    code, text = run(tmp_path, "chi-van", two_vars, "--oracle", "theta")
    assert code == 2


def test_theta_oracle_refuses_degree_1_before_computing(tmp_path, capsys, monkeypatch):
    """f = x has d = 0, outside the closed form: both oracle commands refuse
    it before any cohomology or character is computed."""
    import chiralg.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("computed before the scope check")

    for name in ("chi_van", "cohomology_dims_capped", "cohomology_dims_torus", "euler_series"):
        monkeypatch.setattr(cli, name, unreachable)
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [1]}]},
        "caps": {"weight_max": 1, "x0_cap": 2, "q_max": 1, "z_window": [-2, 2]},
    }
    for command, args in (("chi-van", ("--oracle", "theta")), ("theta-check", ())):
        code, _ = run(tmp_path, command, spec, *args)
        assert code == 2, command
        assert "spec.potential" in capsys.readouterr().err


def test_chi_van_theta_oracle_degree_2_and_3(tmp_path):
    # for d >= 2 the closed form's rows at q >= 1 reach beyond z^-(d+1)..z^1
    for exps, cap, euler in (([3], 4, -2), ([4], 6, -3)):
        spec = {
            "dim": 1,
            "side": "omega",
            "potential": {"terms": [{"coeff": "1", "exps": exps}]},
            "caps": {"weight_max": 2, "x0_cap": cap},
        }
        code, text = run(tmp_path, "chi-van", spec, "--oracle", "theta")
        assert code == 0, text
        payload = json.loads(text)["payload"]
        assert payload["oracle_rows"] == {"0": euler, "1": 0, "2": 0}
        assert "witness" not in payload



def test_zero_potential_terms_are_dropped(tmp_path, capsys):
    """f = 0 x^3 is the zero potential, outside the closed form (the theta
    oracle gave the false witness q 0, computed 1, oracle -2), and
    f = x^3 + 0 x^2 is x^3 (theta-check refused it as not quasi-homogeneous)."""
    def spec(*terms, **caps):
        return {
            "dim": 1,
            "side": "omega",
            "potential": {"terms": [{"coeff": c, "exps": [e]} for c, e in terms]},
            "caps": caps,
        }

    zero = spec(("0", 3), weight_max=1, x0_cap=2)
    code, _ = run(tmp_path, "chi-van", zero, "--oracle", "theta")
    assert code == 2
    assert "spec.potential" in capsys.readouterr().err
    code, _ = run(tmp_path, "theta-check", dict(zero, caps={"q_max": 2, "z_window": [-6, 3]}))
    assert code == 2
    assert "spec.potential" in capsys.readouterr().err
    cubic = spec(("1", 3), ("0", 2), q_max=3, z_window=[-8, 3], weight_max=1, x0_cap=2)
    code, text = run(tmp_path, "theta-check", cubic)
    assert code == 0
    assert json.loads(text)["payload"]["equal"] is True
    code, text = run(tmp_path, "chi-van", cubic, "--oracle", "theta")
    assert code == 0
    assert json.loads(text)["payload"]["table"] == json.loads(
        run(tmp_path, "chi-van", spec(("1", 3), weight_max=1, x0_cap=2), "--oracle", "theta")[1]
    )["payload"]["table"]


def test_closed_form_refuses_a_potential_that_is_not_quasi_homogeneous(tmp_path, capsys):
    """f = 1 + x has no degree for x = 1: theta-check and the theta oracle
    refuse it as a spec error, not with a bare FockError message."""
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [0]}, {"coeff": "1", "exps": [1]}]},
        "caps": {"weight_max": 1, "x0_cap": 2, "q_max": 2, "z_window": [-6, 3]},
    }
    for args in (("theta-check",), ("chi-van", "--oracle", "theta")):
        code, text = run(tmp_path, *args[:1], spec, *args[1:])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: spec.potential: potential not quasi-homogeneous for wx=(1,)\n"
        )


def test_zero_potential_has_no_default_torus_weights(tmp_path, capsys):
    """f = 0 x^3 has no degree to derive the default torus weights from:
    `char` and `basis` refuse it as the zero potential, not as a potential
    that is not quasi-homogeneous, and run once the weights are given."""
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "0", "exps": [3]}]},
        "caps": {"q_max": 2, "weight_max": 1, "z_window": [-6, 3]},
    }
    for command in ("char", "basis"):
        code, _ = run(tmp_path, command, spec)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: spec.torus_weights: the zero potential has no quasi-homogeneous degree\n"
        )
        code, _ = run(tmp_path, command, dict(spec, torus_weights={"x": [1], "phi": [-2]}))
        assert code == 0


def test_theta_check_names_itself_without_a_z_window(tmp_path, capsys):
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [3]}]},
        "caps": {"q_max": 2},
    }
    code, _ = run(tmp_path, "theta-check", spec)
    assert code == 2
    assert "spec.caps.z_window: required for 'theta-check'" in capsys.readouterr().err

def _cubic_with_window(lo, hi):
    return {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [3]}]},
        "caps": {"q_max": 2, "z_window": [lo, hi]},
    }


@pytest.mark.parametrize("command", ["char", "theta-check", "cohomology"])
def test_z_window_wider_than_the_budget_exits_2(tmp_path, capsys, command):
    lo = -MAX_Z_WINDOW // 2
    code, text = run(tmp_path, command, _cubic_with_window(lo, lo + MAX_Z_WINDOW))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: spec.caps.z_window: spans {MAX_Z_WINDOW + 1} torus values, "
        f"more than {MAX_Z_WINDOW}\n"
    )


def test_widest_accepted_z_window(tmp_path):
    """A window of exactly ``MAX_Z_WINDOW`` values runs, and its rows are
    those of a window just wide enough for the closed form's support."""
    lo = -MAX_Z_WINDOW // 2
    code, text = run(tmp_path, "theta-check", _cubic_with_window(lo, lo + MAX_Z_WINDOW - 1))
    assert code == 0
    wide = json.loads(text)["payload"]
    assert wide["equal"] is True
    code, text = run(tmp_path, "theta-check", _cubic_with_window(-6, 3))
    assert code == 0
    assert json.loads(text)["payload"]["series"]["rows"] == wide["series"]["rows"]


def test_anticommute_command(tmp_path):
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
        "caps": {"weight_max": 2},
    }
    code, text = run(tmp_path, "anticommute", spec)
    assert code == 0
    assert json.loads(text)["payload"]["anticommute"] is True


def test_reconstruct_check_command(tmp_path):
    spec = {
        "dim": 1,
        "side": "theta",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
        "caps": {"weight_max": 2, "x0_cap": 2},
    }
    code, text = run(tmp_path, "reconstruct-check", spec)
    assert code == 0
    assert json.loads(text)["payload"]["agrees"] is True


def test_reconstruct_check_refuses_other_charges(tmp_path, capsys):
    """The residue vector is read off the charge's patterns.  For d_dR + df
    it mixes weights 0 and 1, for a Lie charge it has degree -1, and for a
    zero charge it is zero, which would agree vacuously: all exit 2."""
    omega_x2 = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
    }
    constant = {"dim": 1, "potential": {"terms": [{"coeff": "1", "exps": [0]}]}}
    abelian = {"dim": 1, "lie": {"dim": 1, "c": []}}
    for spec, field in (
        (omega_x2, "weight"),
        ({"dim": 3, "lie": SL2}, "degree"),
        (constant, "nonzero"),
        (abelian, "nonzero"),
    ):
        spec = dict(spec, caps={"weight_max": 1, "x0_cap": 1})
        code, _ = run(tmp_path, "reconstruct-check", spec)
        assert code == 2, spec
        assert field in capsys.readouterr().err


def test_long_potential_monomial_exits_0(tmp_path):
    """f = x^1500 gives a 1500-letter pattern and residue vector; charge
    instantiation and field expansion enumerate their indices without
    recursion, so both commands finish instead of exiting 3."""
    spec = {
        "dim": 1,
        "side": "theta",
        "potential": {"terms": [{"coeff": "1", "exps": [1500]}]},
        "caps": {"weight_max": 0, "x0_cap": 0},
    }
    code, text = run(tmp_path, "nilpotency", spec)
    assert code == 0
    assert json.loads(text)["payload"]["nilpotent"] is True
    code, text = run(tmp_path, "reconstruct-check", spec)
    assert code == 0
    assert json.loads(text)["payload"]["agrees"] is True


def test_singular_and_epsilon_commands(tmp_path):
    spec = {
        "dim": 1,
        "zero_modes": {"builtin": "polynomial", "cap": 2},
        "caps": {"weight_max": 3},
    }
    code, text = run(tmp_path, "singular", spec)
    assert code == 0
    payload = json.loads(text)["payload"]
    assert payload["singular_dims"] == {"0": 6, "1": 0, "2": 0, "3": 0}
    spec["zero_modes"] = {"builtin": "delta", "cap": 2}
    spec["caps"]["weight_max"] = 2
    code, text = run(tmp_path, "epsilon-check", spec)
    assert code == 0
    assert json.loads(text)["payload"]["passed"] is True


def test_basis_command_torus_regularized(tmp_path):
    spec = {
        "dim": 1,
        "side": "omega",
        "potential": {"terms": [{"coeff": "1", "exps": [2]}]},
        "caps": {"weight_max": 1, "z_window": [-3, 3]},
    }
    code, text = run(tmp_path, "basis", spec)
    assert code == 0
    assert json.loads(text)["payload"]["regularization"] == "torus"


@pytest.mark.parametrize("side", ["theta", "omega"])
@pytest.mark.parametrize("dim, weight_max, cap", [(1, 4, 2), (2, 2, 1), (3, 1, 0)])
def test_basis_dims_count_classes_without_walking_bases(
    tmp_path, monkeypatch, side, dim, weight_max, cap
):
    """The capped `basis` dims equal the tally of the capped basis per
    (weight, degree), and neither regime walks the bases to count them."""
    from chiralg import fock
    from chiralg.fock import enumerate_basis, make_space, Side

    space = make_space(Side(side), dim)
    want = {}
    for q in range(weight_max + 1):
        for mono in enumerate_basis(space, q, x0_cap=cap):
            key = f"{q},{sum(m.degree for m in mono)}"
            want[key] = want.get(key, 0) + 1

    def walk(*args, **kwargs):
        raise AssertionError("walked the bases")

    monkeypatch.setattr(fock, "_creator_multisets", walk)
    spec = {"dim": dim, "side": side, "caps": {"weight_max": weight_max, "x0_cap": cap}}
    code, text = run(tmp_path, "basis", spec)
    assert code == 0
    assert json.loads(text)["payload"]["dims"] == want
    del spec["caps"]["x0_cap"]
    spec["caps"]["z_window"] = [-3, 3]
    spec["torus_weights"] = {"x": [1] * dim, "phi": [-1] * dim}
    code, text = run(tmp_path, "basis", spec)
    assert code == 0
    assert json.loads(text)["payload"]["regularization"] == "torus"


# C[psi0] at x-degree cap 0, a valid explicit module: psi0 e0 = e1, phi0 e1 = e0
FERMION_LINE = {
    "labels": ["1", "psi0"],
    "degrees": [0, 0],
    "parities": [0, 1],
    "cap": 0,
    "actions": {
        "x0": [["0", "0"], ["0", "0"]],
        "y0": [["0", "0"], ["0", "0"]],
        "phi0": [["0", "1"], ["0", "0"]],
        "psi0": [["0", "0"], ["1", "0"]],
    },
}


def test_malformed_zero_mode_actions_exit_2(tmp_path, capsys):
    names = ("x0", "y0", "phi0", "psi0")
    zero_modes = {"labels": [], "degrees": [], "parities": [], "cap": 0}
    valid = FERMION_LINE
    bad = [
        # a list, not a name -> matrix object
        (dict(zero_modes, actions=["x0", "y0", "phi0", "psi0"]), "actions"),
        # rows not lists
        (
            dict(zero_modes, labels=["a"], degrees=[0], parities=[0],
                 actions={name: [1] for name in names}),
            "actions.x0",
        ),
        # each of these was truncated or split into a valid module
        (dict(valid, degrees=[0.9, 0], cap=0.5), "degrees"),
        (dict(valid, degrees=[True, 0]), "degrees"),
        (dict(valid, cap=False), "cap"),
        (dict(valid, parities=[0, 3]), "parities"),
        (dict(valid, labels="ab"), "labels"),
        (dict(valid, actions=dict(valid["actions"], psi0=[[0, 0], [1.0, 0]])), "actions.psi0[1][0]"),
    ]
    code, _ = run(tmp_path, "singular", {"dim": 1, "caps": {"weight_max": 1}, "zero_modes": valid})
    assert code == 0
    for zm, field in bad:
        spec = {"dim": 1, "caps": {"weight_max": 1}, "zero_modes": zm}
        code, _ = run(tmp_path, "singular", spec)
        assert code == 2, zm
        assert f"error: spec.zero_modes.{field}:" in capsys.readouterr().err


def test_empty_zero_mode_module_exits_2(tmp_path, capsys):
    """No basis vectors: the singular count and the epsilon check would pass
    vacuously."""
    zero_modes = {
        "labels": [], "degrees": [], "parities": [], "cap": 0,
        "actions": {name: [] for name in ("x0", "y0", "phi0", "psi0")},
    }
    spec = {"dim": 1, "zero_modes": zero_modes, "caps": {"weight_max": 1}}
    for command in ("singular", "epsilon-check"):
        code, text = run(tmp_path, command, spec)
        assert code == 2 and text == "", command
        assert "at least one basis vector" in capsys.readouterr().err


def _zero_mode_json(base):
    """The spec object of a zero-mode module: dense matrices of strings."""
    n = base.dim
    doc = {
        "labels": list(base.labels),
        "degrees": list(base.degrees),
        "parities": list(base.parities),
        "cap": base.cap,
        "actions": {},
    }
    for name, cols in base.actions.items():
        mat = [["0"] * n for _ in range(n)]
        for c, col in enumerate(cols):
            for r, v in col.items():
                mat[r][c] = str(v)
        doc["actions"][name] = mat
    return doc


def test_zero_mode_json_round_trip():
    base = polynomial_zero_modes(1)
    back = ProblemSpec({"dim": 1, "zero_modes": _zero_mode_json(base)}).zero_mode_module()
    assert back.labels == base.labels
    for name in base.actions:
        assert back.actions[name] == base.actions[name]


def test_zero_mode_json_rejects_malformed_input():
    with pytest.raises(SpecError):
        ProblemSpec({"dim": 1, "zero_modes": {"labels": ["a"]}}).zero_mode_module()
    base = polynomial_zero_modes(1)
    doc = dict(_zero_mode_json(base), actions={name: [["0"]] for name in base.actions})
    with pytest.raises(SpecError):
        ProblemSpec({"dim": 1, "zero_modes": doc}).zero_mode_module()


def test_zero_mode_commands_refuse_other_dims(tmp_path, capsys):
    # modfun induces modules on the line only; a dim-2 spec would get the
    # line's answer
    spec = {"dim": 2, "zero_modes": {"builtin": "polynomial", "cap": 1}, "caps": {"weight_max": 1}}
    for command in ("singular", "epsilon-check"):
        code, text = run(tmp_path, command, spec)
        assert code == 2 and text == "", command
        assert "spec.dim" in capsys.readouterr().err


def test_negative_zero_mode_cap_exits_2(tmp_path, capsys):
    """A built-in module's negative cap is refused as a spec field; an
    explicit module's, by the module check under ``spec.zero_modes``."""
    for builtin in ("polynomial", "delta", "unknown"):
        spec = {
            "dim": 1,
            "zero_modes": {"builtin": builtin, "cap": -1},
            "caps": {"weight_max": 2},
        }
        for command in ("singular", "epsilon-check"):
            code, text = run(tmp_path, command, spec)
            assert code == 2 and text == "", (builtin, command)
            assert capsys.readouterr().err == "error: spec.zero_modes.cap: must be >= 0\n"
    labels = {"labels": [], "degrees": [], "parities": [], "cap": -1}
    spec = {
        "dim": 1,
        "zero_modes": dict(labels, actions={n: [] for n in ("x0", "y0", "phi0", "psi0")}),
        "caps": {"weight_max": 2},
    }
    code, _ = run(tmp_path, "singular", spec)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: spec.zero_modes: degree cap must be >= 0")


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    import chiralg.cli as cli

    def broken(spec):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "basis", broken)
    code, text = run(tmp_path, "basis", {"dim": 1})
    assert code == 3 and text == ""
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_unwitnessed_square_exits_3(tmp_path, capsys, monkeypatch):
    """A Q^2 term that survives with no probe to witness it is a fault of the
    package, not of the spec: with every operator application made zero, the
    Jacobi violation's probes witness nothing, and the check names the term
    as an internal error, with nothing on stdout."""
    from chiralg.fock import State
    from chiralg.oper import ChargeOperator

    monkeypatch.setattr(ChargeOperator, "__call__", lambda self, state: State())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"dim": 3, "lie": BAD_JACOBI, "caps": {"weight_max": 1}}))
    assert main(["nilpotency", "--spec", str(spec_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal error: RuntimeError: Q^2 term " in err
    assert "survives but no probe witnesses it" in err


COEFFS = hst.sampled_from(["1", "-1", "2", "1/2", "-3/2", "0"])
# every command but the two that take a zero-mode module
SPACE_COMMANDS = (
    "basis", "char", "theta-check", "cohomology", "chi-van",
    "nilpotency", "anticommute", "reconstruct-check",
)
# the commands whose exit 1 is a failed check that names a witness
WITNESSED = ("nilpotency", "anticommute", "reconstruct-check", "theta-check")


@hst.composite
def small_specs(draw):
    """(command, spec): one of the commands that take no zero-mode module on
    a spec of dim 1-2 on either side with a potential, a Lie tensor or
    neither, caps up to 2, maybe torus weights and a z window at most 6
    wide.  Many are invalid for their command, or for any."""
    dim = draw(hst.integers(1, 2))
    spec = {"dim": dim, "side": draw(hst.sampled_from(["theta", "omega"]))}
    kind = draw(hst.sampled_from(["potential", "lie", "neither"]))
    if kind == "potential":
        exps = hst.lists(hst.integers(0, 3), min_size=dim, max_size=dim)
        terms = draw(hst.lists(exps, min_size=1, max_size=2, unique_by=tuple))
        spec["potential"] = {"terms": [{"coeff": draw(COEFFS), "exps": e} for e in terms]}
    elif kind == "lie":
        index = hst.integers(1, dim)
        entries = draw(hst.lists(hst.tuples(index, index, index, COEFFS), max_size=3))
        spec["lie"] = {"dim": dim, "c": [list(e) for e in entries]}
    caps = {"weight_max": draw(hst.integers(0, 2))}
    if draw(hst.booleans()):
        caps["x0_cap"] = draw(hst.integers(0, 2))
    if draw(hst.booleans()):
        caps["q_max"] = draw(hst.integers(0, 2))
    if draw(hst.booleans()):
        lo = draw(hst.integers(-6, 2))
        caps["z_window"] = [lo, lo + draw(hst.integers(0, 6))]
    spec["caps"] = caps
    if draw(hst.booleans()):
        weights = hst.lists(hst.integers(-3, 2), min_size=dim, max_size=dim)
        spec["torus_weights"] = {"x": draw(weights), "phi": draw(weights)}
    return draw(hst.sampled_from(SPACE_COMMANDS)), spec


def _assert_contract(tmp_path_factory, command, spec):
    """Exit 0, 1 or 2; an exit 2 prints one stderr line, ``error: spec...``,
    naming the spec or the field at fault; an exit 0 or 1 reruns to the same
    document but for ``timing_ms``; and a failed check's exit 1 carries a
    witness."""
    spec_path = tmp_path_factory.mktemp("spec") / "spec.json"
    spec_path.write_text(json.dumps(spec))
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--spec", str(spec_path)])
        runs.append((code, out.getvalue(), err.getvalue()))
        if code == 2:
            break
    code, text, err = runs[0]
    assert code in (0, 1, 2), err
    if code == 2:
        assert text == "" and len(err.splitlines()) == 1 and err.startswith("error: spec"), err
        return
    docs = [json.loads(t) for _, t, _ in runs]
    for doc in docs:
        del doc["timing_ms"]
    assert runs[1][0] == code and docs[0] == docs[1]
    if code == 1 and command in WITNESSED:
        assert "witness" in docs[0]["payload"]


@settings(max_examples=500, deadline=None)
@given(small_specs())
def test_cli_contract_on_small_specs(tmp_path_factory, case):
    """The contract of ``_assert_contract`` on every command that takes no
    zero-mode module."""
    _assert_contract(tmp_path_factory, *case)


ZERO_MODE_ENTRIES = hst.sampled_from(["0", "1", "-1", "1/2"])


@hst.composite
def zero_mode_specs(draw):
    """(command, spec): ``singular`` or ``epsilon-check`` on a spec of dim
    1-2 whose zero-mode module is a built-in (or an unknown name) with a cap
    of -1 to 2, or an explicit module: C[psi0] with maybe its cap or one
    entry changed, or 0-2 basis vectors whose matrices may be of the wrong
    size and whose parities may lie outside {0, 1}."""
    spec = {"dim": draw(hst.integers(1, 2)), "caps": {"weight_max": draw(hst.integers(0, 2))}}
    kind = draw(hst.sampled_from(["builtin", "fermion line", "drawn"]))
    if kind == "builtin":
        name = draw(hst.sampled_from(["polynomial", "delta", "cubic"]))
        zero_modes = {"builtin": name, "cap": draw(hst.integers(-1, 2))}
    elif kind == "fermion line":
        zero_modes = json.loads(json.dumps(FERMION_LINE))
        if draw(hst.booleans()):
            zero_modes["cap"] = draw(hst.integers(-1, 2))
        if draw(hst.booleans()):
            mat = zero_modes["actions"][draw(hst.sampled_from(sorted(zero_modes["actions"])))]
            mat[draw(hst.integers(0, 1))][draw(hst.integers(0, 1))] = draw(ZERO_MODE_ENTRIES)
    else:
        n = draw(hst.integers(0, 2))
        sizes = hst.integers(max(n - 1, 0), n + 1)

        def matrix():
            rows, cols = draw(sizes), draw(sizes)
            return [[draw(ZERO_MODE_ENTRIES) for _ in range(cols)] for _ in range(rows)]

        zero_modes = {
            "labels": [f"e{i}" for i in range(n)],
            "degrees": draw(hst.lists(hst.integers(0, 1), min_size=n, max_size=n)),
            "parities": draw(hst.lists(hst.integers(-1, 2), min_size=n, max_size=n)),
            "cap": draw(hst.integers(-1, 2)),
            "actions": {name: matrix() for name in ("x0", "y0", "phi0", "psi0")},
        }
    spec["zero_modes"] = zero_modes
    return draw(hst.sampled_from(["singular", "epsilon-check"])), spec


@settings(max_examples=200, deadline=None)
@given(zero_mode_specs())
@example(("singular", {"dim": 1, "zero_modes": {"builtin": "delta", "cap": -1}}))
def test_cli_contract_on_zero_mode_specs(tmp_path_factory, case):
    """The contract of ``test_cli_contract_on_small_specs`` for the two
    commands that take a zero-mode module."""
    _assert_contract(tmp_path_factory, *case)
