"""Zero-mode modules, induction, singular vectors, the epsilon check."""

import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

from chiralg import modfun
from chiralg.charges import Potential, potential_charge
from chiralg.cli import ProblemSpec, main
from chiralg.fock import (
    Family,
    ModeKey,
    Side,
    State,
    enumerate_basis,
    make_space,
    normalize,
)
from chiralg.linalg import rank
from chiralg.modfun import (
    InducedTruncation,
    ModuleError,
    ZeroModeModule,
    check_epsilon,
    delta_zero_modes,
    polynomial_zero_modes,
    singular_vectors,
)
from chiralg.oper import ChargeOperator, instantiate_charge
from conftest import partition_gf_coeffs
from mode_oracle import apply_mode, reference_epsilon_columns, reference_singular_vectors

THETA1 = make_space(Side.THETA, 1)


def test_polynomial_module_shape():
    base = polynomial_zero_modes(2)
    assert base.dim == 6
    assert base.apply("y0", {base.labels.index("x0^2"): Fraction(1)}) == {
        base.labels.index("x0^1"): Fraction(2)
    }


def test_delta_module_action():
    base = delta_zero_modes(3)
    assert base.dim == 8
    i0 = base.labels.index("y0^0 delta")
    assert base.apply("x0", {i0: Fraction(1)}) == {}
    i2 = base.labels.index("y0^2 delta")
    i1 = base.labels.index("y0^1 delta")
    assert base.apply("x0", {i2: Fraction(1)}) == {i1: Fraction(-2)}


def test_induced_matches_vacuum_fock_truncation():
    cap = 2
    module = InducedTruncation(polynomial_zero_modes(cap), 3)
    for q in range(4):
        assert module.dim(q) == len(enumerate_basis(THETA1, q, x0_cap=cap))


def test_induce_weight_cap_zero_is_base():
    base = delta_zero_modes(1)
    module = InducedTruncation(base, 0)
    assert module.dim(0) == base.dim


def test_induced_delta_dims_by_free_enumeration():
    base = delta_zero_modes(3)
    module = InducedTruncation(base, 3)
    free = partition_gf_coeffs(3)  # free positive modes of all four families
    for q in range(4):
        assert module.dim(q) == base.dim * free[q]


def test_singular_weight0_is_all_of_base():
    for base in (polynomial_zero_modes(2), delta_zero_modes(2)):
        module = InducedTruncation(base, 2)
        assert len(singular_vectors(module, 0)) == base.dim


def test_vacuum_singular_vectors():
    module = InducedTruncation(polynomial_zero_modes(2), 4)
    dims = [len(singular_vectors(module, q)) for q in range(5)]
    assert dims == [6, 0, 0, 0, 0]


def test_delta_singular_vectors():
    module = InducedTruncation(delta_zero_modes(3), 4)
    dims = [len(singular_vectors(module, q)) for q in range(5)]
    assert dims == [8, 0, 0, 0, 0]


def test_induced_vacuum_module_matches_fock_action():
    """The induced vacuum module is the x0-capped Fock space of the theta
    line, so every mode acts as the reference mode action does there; this
    pins the zero-mode sign convention and the positive-mode action
    together."""
    cap = 3
    module = InducedTruncation(polynomial_zero_modes(cap), cap)
    n = module.base.dim  # basis vector 2k + eps is x0^k psi0^eps

    def fock(q, vec):
        out = State()
        for i, c in vec.items():
            p, b = divmod(i, n)
            k, eps = divmod(b, 2)
            modes = module.positive[q][p] + (ModeKey(Family.X, 1, 0),) * k
            modes += (ModeKey(Family.PSI, 1, 0),) * eps
            out = out + normalize(THETA1, modes, c)
        return out

    cases = 0
    for q in range(3):
        for i in range(module.dim(q)):
            for fam in (Family.X, Family.Y, Family.PHI, Family.PSI):
                for idx in range(-2, 3):
                    if not 0 <= q + idx <= cap:
                        continue
                    if (fam, idx) == (Family.X, 0) and i % n // 2 == cap:
                        continue  # x0 would leave the cap of the base
                    mode = ModeKey(fam, 1, idx)
                    w, img = module.apply_mode(mode, q, {i: Fraction(1)})
                    want = apply_mode(THETA1, mode, fock(q, {i: Fraction(1)}))
                    assert fock(w, img) == want, (mode, q, i)
                    cases += 1
    assert cases == 2110


def test_nonsingular_probe_detected():
    module = InducedTruncation(polynomial_zero_modes(1), 2)
    _, img = module.apply_mode(ModeKey(Family.X, 1, 1), 0, {0: Fraction(1)})
    assert img
    _, back = module.apply_mode(ModeKey(Family.Y, 1, -1), 1, img)
    assert back  # y_{-1} detects the x_1 factor


def test_check_epsilon_passes():
    assert check_epsilon(polynomial_zero_modes(2), 3)
    assert check_epsilon(delta_zero_modes(3), 2)


def test_corrupted_action_rejected_at_construction():
    base = polynomial_zero_modes(2)
    actions = {k: [dict(col) for col in v] for k, v in base.actions.items()}
    actions["x0"][0] = {}  # break [y0, x0] = 1 on the lowest vector
    with pytest.raises(ModuleError):
        ZeroModeModule(base.labels, base.degrees, base.parities, base.cap, actions)


def test_parity_violation_rejected():
    base = polynomial_zero_modes(1)
    actions = {k: [dict(col) for col in v] for k, v in base.actions.items()}
    psi_col = base.labels.index("x0^0 psi0")
    actions["x0"][0] = {psi_col: Fraction(1)}  # even operator changing parity
    with pytest.raises(ModuleError):
        ZeroModeModule(base.labels, base.degrees, base.parities, base.cap, actions)


def test_negative_modes_supercommute_with_zero_modes():
    module = InducedTruncation(polynomial_zero_modes(2), 2)
    zero_modes = [
        ModeKey(Family.X, 1, 0), ModeKey(Family.Y, 1, 0),
        ModeKey(Family.PHI, 1, 0), ModeKey(Family.PSI, 1, 0),
    ]
    negatives = [
        ModeKey(fam, 1, -1)
        for fam in (Family.X, Family.Y, Family.PHI, Family.PSI)
    ]
    for q in (1, 2):
        for i in range(module.dim(q)):
            vec = {i: Fraction(1)}
            for a in negatives:
                for b in zero_modes:
                    sign = -1 if (a.fermionic and b.fermionic) else 1
                    _, bv = module.apply_mode(b, q, vec)
                    _, ab = module.apply_mode(a, q, bv)
                    _, av = module.apply_mode(a, q, vec)
                    _, ba = module.apply_mode(b, q + a.index, av)
                    diff = dict(ab)
                    for j, v in ba.items():
                        diff[j] = diff.get(j, Fraction(0)) - sign * v
                    assert not any(diff.values()), (a, b, q, i)


def _apply_charge(module, terms, weight, vec):
    out = {}
    for term in terms:
        w, cur = weight, dict(vec)
        escaped = False
        for mode in reversed(term.modes):
            if not cur:
                break
            try:
                w, cur = module.apply_mode(mode, w, cur)
            except ModuleError:
                escaped = True
                break
        if escaped or w != weight:
            if cur:
                raise AssertionError("charge term changed the weight")
            continue
        for j, v in cur.items():
            out[j] = out.get(j, Fraction(0)) + term.coefficient * v
    return {j: v for j, v in out.items() if v}


def test_singular_vectors_stable_under_potential_charge():
    """The f = z^2 twist has weight 0 and preserves the joint kernel."""
    charge = potential_charge(Potential.single_variable(2), Side.THETA)
    module = InducedTruncation(polynomial_zero_modes(3), 4)
    for q in (0, 1, 2):
        terms = instantiate_charge(charge, THETA1, q)
        sing = singular_vectors(module, q)
        if not sing:
            continue
        images = [_apply_charge(module, terms, q, vec) for vec in sing]
        base_rank = rank(sing)
        assert rank(sing + images) == base_rank


def test_headroom_errors():
    module = InducedTruncation(polynomial_zero_modes(1), 2)
    with pytest.raises(ModuleError):
        singular_vectors(module, 3)
    with pytest.raises(ModuleError):
        module.apply_mode(ModeKey(Family.X, 1, 2), 1, {0: Fraction(1)})


def _direct_sum_json(bases, order):
    """The spec object of the direct sum of zero-mode modules of one cap,
    with its basis permuted by ``order``: dense matrices of strings."""
    labels, degrees, parities, cols = [], [], [], {name: [] for name in bases[0].actions}
    for s, base in enumerate(bases):
        off = len(labels)
        labels += [f"{label} [{s}]" for label in base.labels]
        degrees += base.degrees
        parities += base.parities
        for name, mat in base.actions.items():
            cols[name] += [{r + off: v for r, v in col.items()} for col in mat]
    n = len(labels)
    new = {old: i for i, old in enumerate(order)}
    actions = {}
    for name, mat in cols.items():
        dense = [["0"] * n for _ in range(n)]
        for c, col in enumerate(mat):
            for r, v in col.items():
                dense[new[r]][new[c]] = str(v)
        actions[name] = dense
    return {
        "labels": [labels[i] for i in order],
        "degrees": [degrees[i] for i in order],
        "parities": [parities[i] for i in order],
        "cap": bases[0].cap,
        "actions": actions,
    }


_GOLDEN_CASES = json.loads(
    (Path(__file__).resolve().parent / "golden" / "cases.json").read_text()
)
_EXPLICIT = next(c for c in _GOLDEN_CASES if c["name"] == "singular_explicit")


@hst.composite
def zero_mode_modules(draw):
    """Built-in modules at caps 0-3, the explicit golden module, and
    permuted direct sums of built-ins parsed through ``ProblemSpec``."""
    builtins = (polynomial_zero_modes, delta_zero_modes)
    kind = draw(hst.sampled_from(("builtin", "golden", "sum")))
    if kind == "golden":
        return ProblemSpec(_EXPLICIT["spec"]).zero_mode_module()
    cap = draw(hst.integers(0, 3))
    if kind == "builtin":
        return draw(hst.sampled_from(builtins))(cap)
    bases = [f(cap) for f in draw(hst.tuples(*[hst.sampled_from(builtins)] * 2))]
    order = draw(hst.permutations(range(sum(b.dim for b in bases))))
    doc = _direct_sum_json(bases, order)
    return ProblemSpec({"dim": 1, "zero_modes": doc}).zero_mode_module()


class _RescaledInduction(InducedTruncation):
    """An induced module whose negative modes act through the entries of
    the true action, each scaled by a drawn factor, zero included.

    The true negative modes of a free positive part have no joint kernel
    above weight 0, so on true modules every lift is of the weight-0 kernel
    with one positive monomial, where the lift's order and index cannot be
    wrong.  These act on the positive factor alone, as the true ones do,
    but with kernels of many vectors."""

    def __init__(self, base, weight_cap, seed):
        super().__init__(base, weight_cap)
        self._rng = random.Random(seed)

    def _positive_images(self, mode, weight):
        key = (mode, weight)
        if key not in self._images:
            images = super()._positive_images(mode, weight)
            factors = (0, 0, 1, -1, 2, Fraction(1, 3))
            self._images[key] = [
                None if image is None else (image[0], image[1] * self._rng.choice(factors))
                for image in images
            ]
        return self._images[key]


@settings(max_examples=40, deadline=None)
@given(zero_mode_modules(), hst.integers(0, 4), hst.none() | hst.integers(0, 2**32))
def test_singular_vectors_match_reference(base, weight_cap, seed):
    """The kernel taken on the positive factor and lifted to each base vector
    is the kernel of the whole weight piece: the same vectors in the same
    order, with the same keys in the same order."""
    if seed is None:
        module = InducedTruncation(base, weight_cap)
    else:
        module = _RescaledInduction(base, weight_cap, seed)
    assert singular_vectors(module, -1) == []
    for q in range(weight_cap + 1):
        got = singular_vectors(module, q)
        want = reference_singular_vectors(module, q)
        assert got == want, q
        assert [list(v) for v in got] == [list(v) for v in want], q
    with pytest.raises(ModuleError, match="head-room"):
        singular_vectors(module, weight_cap + 1)


def _explicit_json(base, x0=1, y0=1):
    """The spec object of ``base`` as an explicit module, with the entries
    of x0 and y0 multiplied by ``x0`` and ``y0``."""
    doc = _direct_sum_json([base], range(base.dim))
    for name, factor in (("x0", x0), ("y0", y0)):
        doc["actions"][name] = [
            [str(Fraction(entry) * factor) for entry in row] for row in doc["actions"][name]
        ]
    return doc


# the polynomial module with x0 scaled by 3 and y0 by 1/3: [y0, x0] = 1
# still holds, and its entries mix int and Fraction
_RESCALED_JSON = _explicit_json(polynomial_zero_modes(2), 3, Fraction(1, 3))


def _entry_types(base):
    return {type(v) for mat in base.actions.values() for col in mat for v in col.values()}


@pytest.mark.parametrize("command", ["epsilon-check", "singular"])
def test_explicit_modules_match_the_builtin_payload(tmp_path, command):
    """An explicit copy of the built-in polynomial module keeps its integral
    entries as int and gives the built-in's payload byte for byte; the copy
    with x0 scaled by 3 and y0 by 1/3 gives the same report."""
    copy = _explicit_json(polynomial_zero_modes(2))
    assert _entry_types(ProblemSpec({"dim": 1, "zero_modes": copy}).zero_mode_module()) == {int}
    rescaled = ProblemSpec({"dim": 1, "zero_modes": _RESCALED_JSON}).zero_mode_module()
    assert _entry_types(rescaled) == {int, Fraction}
    payloads = []
    for zero_modes in ({"builtin": "polynomial", "cap": 2}, copy, _RESCALED_JSON):
        spec_path, out_path = tmp_path / "spec.json", tmp_path / "out.json"
        spec_path.write_text(json.dumps({"dim": 1, "zero_modes": zero_modes, "caps": {"weight_max": 3}}))
        assert main([command, "--spec", str(spec_path), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())["payload"]
        payloads.append(json.dumps(payload, indent=2, sort_keys=True))
    assert payloads[1] == payloads[0]
    assert payloads[2] == payloads[0]


def _epsilon_columns(base, weight_cap):
    """The report of ``check_epsilon`` and the columns of each of its
    ``rank`` calls."""
    seen = []
    real = modfun.rank

    def capture(columns):
        seen.append(list(columns))
        return real(columns)

    with mock.patch.object(modfun, "rank", capture):
        report = check_epsilon(base, weight_cap)
    return report, seen


@pytest.mark.parametrize("weight_cap", range(4))
@pytest.mark.parametrize(
    "name, cap",
    [("polynomial", c) for c in range(4)] + [("delta", c) for c in range(4)] + [("rescaled", 2)],
)
def test_epsilon_columns_match_reference(name, cap, weight_cap):
    """The columns built each from its monomial's tail are, in order and
    with their keys in order, the monomial's modes applied one by one to
    each weight-0 singular vector in ``Fraction``; on the built-in modules
    every entry is an int."""
    if name == "rescaled":
        base = ProblemSpec({"dim": 1, "zero_modes": _RESCALED_JSON}).zero_mode_module()
    else:
        base = {"polynomial": polynomial_zero_modes, "delta": delta_zero_modes}[name](cap)
    report, got = _epsilon_columns(base, weight_cap)
    want = reference_epsilon_columns(InducedTruncation(base, weight_cap))
    assert report
    assert got == want
    assert [[list(col) for col in cols] for cols in got] == [
        [list(col) for col in cols] for cols in want
    ]
    if name != "rescaled":
        assert {type(v) for cols in got for col in cols for v in col.values()} == {int}


@pytest.mark.parametrize("command", ["singular", "epsilon-check"])
@pytest.mark.parametrize("builtin", ["polynomial", "delta"])
def test_zero_mode_commands_build_no_charge_operator(tmp_path, command, builtin):
    """Induced modules act by one Wick step per mode: both commands run on
    the built-in modules with ``ChargeOperator`` made unbuildable."""
    assert not {"ChargeOperator", "OperatorTerm"} & set(vars(modfun))

    def refuse(self, *args, **kwargs):
        raise AssertionError("built a ChargeOperator")

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"dim": 1, "zero_modes": {"builtin": builtin, "cap": 2}, "caps": {"weight_max": 3}})
    )
    with mock.patch.object(ChargeOperator, "__init__", refuse):
        assert main([command, "--spec", str(spec_path), "--out", str(tmp_path / "out.json")]) == 0
