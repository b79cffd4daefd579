"""Batch front-end: JSON problem specs in, machine-readable results out.

Exit codes: 0 = computation ran and every requested check passed; 1 = the
computation ran but a check failed (a witness is included in the payload);
2 = invalid input; 3 = internal error, an unexpected exception inside the
program, reported on stderr and never as a failed check.  All emitted
numbers are integers or decimal-string rationals, and rerunning the same
spec produces a byte-identical payload section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from fractions import Fraction

from . import __version__
from .charges import (
    Potential,
    StructureConstants,
    check_anticommute,
    check_nilpotent,
    chiral_de_rham,
    combine,
    default_torus_weights,
    lie_charge,
    potential_charge,
)
from .cohomology import (
    CohomologyError,
    chi_van,
    cohomology_dims_capped,
    cohomology_dims_torus,
    euler_series,
)
from .field import residue_charge
from .fock import (
    FockError,
    ModeKey,
    Side,
    State,
    TorusWeights,
    UnboundedBasisError,
    _creator_classes,
    enumerate_basis,
    make_space,
    monomial_key,
    monomial_text,
    normalize,
    torus_window_counts,
)
from .modfun import (
    ZERO_MODE_NAMES,
    InducedTruncation,
    ModuleError,
    ZeroModeModule,
    check_epsilon,
    delta_zero_modes,
    polynomial_zero_modes,
    singular_vectors,
)
from .oper import charge_operator
from .qseries import SeriesError, chi_closed_form, compare

# Fixed conventions the numbers depend on; hashed into every result document
# so downstream comparisons can detect a convention drift.
_CONVENTIONS = "\n".join(
    [
        "mode order: family x < y < psi < phi, then direction, then index",
        "creators theta: x>=0 y>=1 psi>=0 phi>=1; omega: x>=0 y>=1 phi>=0 psi>=1",
        "annihilators: y_{-m}=+d/dx_m, x_{-m}=-d/dy_m, phi_{-m}=+d/dpsi_m, psi_{-m}=+d/dphi_m",
        "field modes: a(z) = sum_n a_(n) z^n with a_(n) raising weight by wt(a)+n",
        "theta product: prod_{n>=0} (1-q^n z)(1-q^{n+1}/z); 1/(1-z) expands in z>=0",
    ]
)
LEDGER_HASH = hashlib.sha256(_CONVENTIONS.encode()).hexdigest()

# The most torus values a spec's z window may span.  Counting a window takes
# time linear in its width; the full support of the closed form at q_max
# 10, d = 6 spans 126 values.
MAX_Z_WINDOW = 10_000


class SpecError(ValueError):
    """Invalid problem spec; the message names the offending field."""


def _is_int(val) -> bool:
    """An integer, and not a JSON boolean (bool is an int in Python)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _field(doc, key, typ, where, required=True, default=None):
    if key not in doc:
        if required:
            raise SpecError(f"{where}: missing required field '{key}'")
        return default
    val = doc[key]
    if typ is int:
        if not _is_int(val):
            raise SpecError(f"{where}.{key}: expected integer, got {val!r}")
    elif not isinstance(val, typ):
        raise SpecError(f"{where}.{key}: expected {typ.__name__}, got {val!r}")
    return val


def _fraction(val, where):
    """An integer, or a string such as "3/2" or "0.25".  Exponent notation is
    refused: Fraction("1e999999999") would build 10^999999999."""
    try:
        if isinstance(val, float):
            raise ValueError("floats are not exact")
        if isinstance(val, str) and "e" in val.lower():
            raise ValueError("exponent notation is not accepted")
        return Fraction(str(val))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{where}: not an exact rational: {val!r} ({exc})")


class ProblemSpec:
    """Validated problem description parsed from the spec JSON file."""

    def __init__(self, doc: dict, validate_lie: bool = True):
        if not isinstance(doc, dict):
            raise SpecError("spec root: expected a JSON object")
        self.dim = _field(doc, "dim", int, "spec")
        if self.dim < 1:
            raise SpecError("spec.dim: must be >= 1")
        side = _field(doc, "side", str, "spec", required=False, default="theta")
        try:
            self.side = Side(side)
        except ValueError:
            raise SpecError(f"spec.side: expected 'theta' or 'omega', got {side!r}")

        self.potential = None
        if "potential" in doc:
            pot = _field(doc, "potential", dict, "spec")
            terms = _field(pot, "terms", list, "spec.potential")
            parsed = []
            for i, term in enumerate(terms):
                where = f"spec.potential.terms[{i}]"
                if not isinstance(term, dict):
                    raise SpecError(f"{where}: expected an object")
                coeff = _fraction(_field(term, "coeff", object, where), where + ".coeff")
                exps = _field(term, "exps", list, where)
                if len(exps) != self.dim or not all(_is_int(e) and e >= 0 for e in exps):
                    raise SpecError(
                        f"{where}.exps: expected {self.dim} nonnegative integers"
                    )
                parsed.append((coeff, tuple(exps)))
            try:
                self.potential = Potential.from_terms(self.dim, parsed)
            except FockError as exc:
                raise SpecError(f"spec.potential: {exc}")

        self.lie = None
        if "lie" in doc:
            lie = _field(doc, "lie", dict, "spec")
            n = _field(lie, "dim", int, "spec.lie")
            entries = []
            for i, row in enumerate(_field(lie, "c", list, "spec.lie")):
                where = f"spec.lie.c[{i}]"
                if not (isinstance(row, list) and len(row) == 4):
                    raise SpecError(f"{where}: expected [k, i, j, value]")
                k, a, b = row[:3]
                for name, v in (("k", k), ("i", a), ("j", b)):
                    if not _is_int(v) or not 1 <= v <= n:
                        raise SpecError(f"{where}.{name}: index out of 1..{n}")
                entries.append((k, a, b, _fraction(row[3], where + ".value")))
            if n != self.dim:
                raise SpecError("spec.lie.dim: must equal spec.dim")
            try:
                self.lie = StructureConstants.from_entries(
                    n, entries, validate=validate_lie
                )
            except FockError as exc:
                raise SpecError(f"spec.lie: {exc}")

        if self.potential is not None and self.lie is not None:
            raise SpecError("spec: give at most one of 'potential' and 'lie'")

        self.torus_weights = None
        if "torus_weights" in doc:
            tw = _field(doc, "torus_weights", dict, "spec")
            wx = _field(tw, "x", list, "spec.torus_weights")
            wphi = _field(tw, "phi", list, "spec.torus_weights")
            psi = _field(tw, "psi", list, "spec.torus_weights", False, None)
            for name, vec in (("x", wx), ("phi", wphi)):
                if len(vec) != self.dim or not all(_is_int(v) for v in vec):
                    raise SpecError(
                        f"spec.torus_weights.{name}: expected {self.dim} integers"
                    )
            # psi is optional: its weights can only be those of phi negated
            if psi is not None and not (
                all(_is_int(v) for v in psi) and psi == [-a for a in wphi]
            ):
                raise SpecError(f"spec.torus_weights.psi: expected -phi, got {psi!r}")
            self.torus_weights = TorusWeights(tuple(wx), tuple(wphi))

        caps = _field(doc, "caps", dict, "spec", required=False, default={})
        self.weight_max = _field(caps, "weight_max", int, "spec.caps", False, 4)
        self.x0_cap = _field(caps, "x0_cap", int, "spec.caps", False, None)
        self.q_max = _field(caps, "q_max", int, "spec.caps", False, self.weight_max)
        zw = _field(caps, "z_window", list, "spec.caps", False, None)
        if zw is not None:
            if len(zw) != 2 or not all(_is_int(v) for v in zw) or zw[0] > zw[1]:
                raise SpecError("spec.caps.z_window: expected [lo, hi] with lo <= hi")
            if zw[1] - zw[0] + 1 > MAX_Z_WINDOW:
                raise SpecError(
                    f"spec.caps.z_window: spans {zw[1] - zw[0] + 1} torus values, "
                    f"more than {MAX_Z_WINDOW}"
                )
            zw = tuple(zw)
        self.z_window = zw
        for name, val in (("weight_max", self.weight_max), ("q_max", self.q_max)):
            if val < 0:
                raise SpecError(f"spec.caps.{name}: must be >= 0")
        if self.x0_cap is not None and self.x0_cap < 0:
            raise SpecError("spec.caps.x0_cap: must be >= 0")

        self.zero_modes = doc.get("zero_modes")

    # -- derived objects -------------------------------------------------------

    def space(self):
        return make_space(self.side, self.dim)

    def default_weights(self) -> TorusWeights:
        if self.torus_weights is not None:
            return self.torus_weights
        if self.potential is not None:
            try:
                return default_torus_weights(self.potential)
            except FockError as exc:
                raise SpecError(f"spec.torus_weights: {exc}")
        raise SpecError("spec: need torus_weights or a potential to derive them")

    def charge(self):
        if self.lie is not None:
            if self.side is not Side.THETA:
                raise SpecError("spec.side: the Lie charge lives on the theta side")
            return lie_charge(self.lie)
        if self.potential is not None:
            tw = potential_charge(self.potential, self.side)
            if self.side is Side.OMEGA:
                return combine(chiral_de_rham(self.dim), tw)
            return tw
        if self.side is Side.OMEGA:
            return chiral_de_rham(self.dim)
        raise SpecError("spec: no differential (need potential, lie, or side=omega)")

    def zero_mode_module(self):
        zm = self.zero_modes
        if zm is None:
            raise SpecError("spec: missing 'zero_modes' for this command")
        if not isinstance(zm, dict):
            raise SpecError("spec.zero_modes: expected an object")
        # modfun induces zero-mode modules on the line only
        if self.dim != 1:
            raise SpecError(f"spec.dim: zero-mode modules need dim 1, got {self.dim}")
        if "builtin" in zm:
            cap = _field(zm, "cap", int, "spec.zero_modes", False, 2)
            if cap < 0:
                raise SpecError("spec.zero_modes.cap: must be >= 0")
            name = zm["builtin"]
            if name == "polynomial":
                return polynomial_zero_modes(cap)
            if name == "delta":
                return delta_zero_modes(cap)
            raise SpecError(
                f"spec.zero_modes.builtin: expected 'polynomial' or 'delta', got {name!r}"
            )
        # an explicit module: dense matrices, rows indexed by target basis vector
        where = "spec.zero_modes"
        labels = _field(zm, "labels", list, where)
        if not all(isinstance(s, str) for s in labels):
            raise SpecError(f"{where}.labels: expected strings, got {labels!r}")
        degrees = _field(zm, "degrees", list, where)
        parities = _field(zm, "parities", list, where)
        for name, vals in (("degrees", degrees), ("parities", parities)):
            if not all(_is_int(v) for v in vals):
                raise SpecError(f"{where}.{name}: expected integers, got {vals!r}")
        if any(p not in (0, 1) for p in parities):
            raise SpecError(f"{where}.parities: expected 0 or 1, got {parities!r}")
        cap = _field(zm, "cap", int, where)
        raw = _field(zm, "actions", dict, where)
        n = len(labels)
        actions = {}
        for name in ZERO_MODE_NAMES:
            mat = _field(raw, name, list, where + ".actions")
            if len(mat) != n or any(
                not isinstance(row, list) or len(row) != n for row in mat
            ):
                raise SpecError(f"{where}.actions.{name}: expected a {n}x{n} matrix")
            cols = [dict() for _ in range(n)]
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    v = _fraction(entry, f"{where}.actions.{name}[{r}][{c}]")
                    if v:
                        # integral entries as int, so they act by int arithmetic
                        cols[c][r] = v.numerator if v.denominator == 1 else v
            actions[name] = cols
        try:
            return ZeroModeModule(tuple(labels), tuple(degrees), tuple(parities), cap, actions)
        except ModuleError as exc:
            raise SpecError(f"{where}: {exc}")


# -- payload helpers -----------------------------------------------------------


def _state_json(space, state):
    return [
        [str(c), monomial_text(mono, space.dim)]
        for mono, c in sorted(state.terms.items(), key=lambda kv: monomial_key(kv[0]))
    ]


def _table_json(table):
    return {
        "dims": {f"{q},{k}": v for (q, k), v in sorted(table.dims.items())},
        "stabilization": {str(q): bool(ok) for q, ok in sorted(table.stabilization.items())},
        "euler": {
            str(q): table.euler(q)
            for q in sorted({q for q, _ in table.dims})
        },
        "metadata": table.metadata,
    }


def _table_csv(table) -> str:
    lines = ["weight,degree,dim,stable"]
    for (q, k), v in sorted(table.dims.items()):
        lines.append(f"{q},{k},{v},{int(table.stabilization.get(q, True))}")
    return "\n".join(lines) + "\n"


def _series_csv(series, zwindow) -> str:
    lines = ["q,z,coeff"]
    doc = series.to_json_dict(zwindow)
    for j, row in doc["rows"].items():
        for e, v in row.items():
            lines.append(f"{j},{e},{v}")
    return "\n".join(lines) + "\n"


# -- commands -------------------------------------------------------------------


def cmd_basis(spec: ProblemSpec):
    space = spec.space()
    dims = {}
    if spec.x0_cap is not None:
        # each x_0-free base stands for (cap + 1)^dim monomials, one per
        # placement of its x_0 letters, all of its weight and degree
        placements = (spec.x0_cap + 1) ** space.dim
        for (q, degree, _), n in _creator_classes(space, spec.weight_max).items():
            dims[(q, degree)] = n * placements
    else:
        tw = spec.default_weights()
        window = spec.z_window or (-2 * spec.weight_max - 2, spec.weight_max + 2)
        for (q, _, degree), n in torus_window_counts(space, spec.weight_max, tw, window).items():
            dims[(q, degree)] = dims.get((q, degree), 0) + n
    payload = {
        "dims": {f"{q},{k}": v for (q, k), v in sorted(dims.items())},
        "regularization": "x0_cap" if spec.x0_cap is not None else "torus",
    }
    return payload, 0, None


def cmd_char(spec: ProblemSpec):
    space = spec.space()
    tw = spec.default_weights()
    zwindow = spec.z_window
    if zwindow is None:
        raise SpecError("spec.caps.z_window: required for 'char'")
    series = euler_series(space, spec.q_max, zwindow, tw)
    return {"series": series.to_json_dict(zwindow)}, 0, series


def _require_closed_form_scope(spec: ProblemSpec, what: str) -> int:
    """d in -z^-d theta(z^d)/theta(z), the character of the one-variable
    twisted de Rham complex of f = c z^(d+1).  The theta side has Euler number
    +d at q^0, not -d, and more variables have other characters, so ``what``
    refuses both, as it refuses a spec with no potential, a zero one or d < 1."""
    if spec.side is not Side.OMEGA:
        raise SpecError(
            f"spec.side: {what} needs side 'omega', got '{spec.side.value}'"
        )
    if spec.dim != 1:
        raise SpecError(f"spec.dim: {what} needs dim 1, got {spec.dim}")
    if spec.potential is None:
        raise SpecError(f"spec.potential: required for {what}")
    if not spec.potential.terms:
        raise SpecError(f"spec.potential: {what} needs a nonzero potential")
    try:
        d = spec.potential.quasi_degree((1,)) - 1
    except FockError as exc:
        raise SpecError(f"spec.potential: {exc}")
    if d < 1:
        raise SpecError("spec.potential: degree must be >= 2 for the theta oracle")
    return d


def cmd_theta_check(spec: ProblemSpec):
    d = _require_closed_form_scope(spec, "'theta-check'")
    # the closed form grades z by x = 1, phi = 1 - D; other weights space
    # the same series differently
    default = default_torus_weights(spec.potential)
    if spec.default_weights() != default:
        raise SpecError(
            f"spec.torus_weights: 'theta-check' needs the default weights "
            f"x {list(default.wx)}, phi {list(default.wphi)}"
        )
    if spec.z_window is None:
        raise SpecError("spec.caps.z_window: required for 'theta-check'")
    payload, _, series = cmd_char(spec)
    oracle = chi_closed_form(d, spec.q_max)
    report = compare(series, oracle, zwindow=spec.z_window, qmax=spec.q_max)
    payload["oracle"] = oracle.to_json_dict(spec.z_window)
    payload["equal"] = bool(report)
    if not report:
        j, e, va, vb = report.first_mismatch
        payload["witness"] = {"q": j, "z": e, "computed": str(va), "oracle": str(vb)}
    return payload, 0 if report else 1, None


def _cohomology_table(spec: ProblemSpec, command: str):
    """Torus cohomology when the spec gives torus weights and a z window,
    else capped cohomology when it gives an x_0 cap."""
    space = spec.space()
    charge = spec.charge()
    if spec.torus_weights is not None and spec.z_window is not None:
        if charge.torus_shift(spec.torus_weights) is None:
            raise SpecError("spec.torus_weights: charge is not torus homogeneous")
        return cohomology_dims_torus(
            charge, space, spec.weight_max, spec.torus_weights, spec.z_window
        )
    if spec.x0_cap is not None:
        return cohomology_dims_capped(charge, space, spec.weight_max, spec.x0_cap)
    raise SpecError(
        f"spec.caps: need x0_cap, or torus_weights with z_window, for '{command}'"
    )


def cmd_cohomology(spec: ProblemSpec):
    table = _cohomology_table(spec, "cohomology")
    code = 0 if all(table.stabilization.values()) else 1
    return {"table": _table_json(table)}, code, table


def cmd_chi_van(spec: ProblemSpec, oracle: str):
    if oracle == "theta":
        d = _require_closed_form_scope(spec, "the theta oracle")
    table = _cohomology_table(spec, "chi-van")
    series = chi_van(table)
    payload = {
        "series": series.to_json_dict((0, 0)),
        "table": _table_json(table),
    }
    code = 0 if all(table.stabilization.values()) else 1
    if oracle == "theta":
        oracle_series = chi_closed_form(d, spec.weight_max)
        # z-collapse of the oracle: total Euler number per q row
        collapsed = {
            j: sum(oracle_series.rows.get(j, {}).values())
            for j in range(spec.weight_max + 1)
        }
        payload["oracle_rows"] = {str(j): v for j, v in collapsed.items()}
        for j, want in collapsed.items():
            got = table.euler(j)
            if got != want:
                payload["witness"] = {"q": j, "computed": got, "oracle": want}
                code = 1
                break
    return payload, code, table


def cmd_nilpotency(spec: ProblemSpec):
    # The spec is parsed with validate_lie=False for this command, so a
    # Jacobi-violating (but antisymmetric) tensor reaches the operator check
    # and is witnessed there instead of being rejected as an invalid spec.
    space = spec.space()
    charge = spec.charge()
    report = check_nilpotent(charge, space, spec.weight_max)
    payload = {"nilpotent": bool(report)}
    if not report:
        payload["witness"] = {
            "state": monomial_text(report.witness, space.dim),
            "square": _state_json(space, report.image),
        }
    return payload, 0 if report else 1, None


def cmd_anticommute(spec: ProblemSpec):
    if spec.potential is None:
        raise SpecError("spec.potential: required for 'anticommute'")
    if spec.side is not Side.OMEGA:
        raise SpecError("spec.side: 'anticommute' compares charges on the omega side")
    space = spec.space()
    c1 = chiral_de_rham(spec.dim)
    c2 = potential_charge(spec.potential, Side.OMEGA)
    report = check_anticommute(c1, c2, space, spec.weight_max)
    payload = {"anticommute": bool(report)}
    if not report:
        payload["witness"] = {
            "state": monomial_text(report.witness, space.dim),
            "bracket": _state_json(space, report.image),
        }
    return payload, 0 if report else 1, None


def _brst_vector(charge, space):
    """The vector whose residue mode a_(-1) is the charge: each pattern's
    letters at their families' first creator indices.  ``residue_charge``
    refuses it unless it has weight 1 and degree +1."""
    out = State.zero()
    for coeff, letters in charge.patterns:
        modes = [ModeKey(fam, j, space.creator_threshold(fam)) for fam, j in letters]
        out = out + normalize(space, modes, coeff)
    if out.is_zero():  # a zero charge would agree with it vacuously
        raise SpecError("spec: 'reconstruct-check' needs a nonzero differential")
    return out


def cmd_reconstruct_check(spec: ProblemSpec):
    space = spec.space()
    charge = spec.charge()
    vector = _brst_vector(charge, space)
    try:
        brst = residue_charge(space, vector, spec.weight_max)
    except FockError as exc:  # the vector is read off the charge's own field
        raise SpecError(f"spec.{'lie' if spec.lie is not None else 'potential'}: {exc}")
    cap = spec.x0_cap if spec.x0_cap is not None else 2
    op = charge_operator(charge, space, spec.weight_max)
    for q in range(spec.weight_max + 1):
        for mono in enumerate_basis(space, q, x0_cap=cap):
            v = State.of(mono)
            via_field = brst(v)
            via_charge = op(v)
            if via_field != via_charge:
                return (
                    {
                        "agrees": False,
                        "witness": {
                            "state": monomial_text(mono, space.dim),
                            "field_mode": _state_json(space, via_field),
                            "charge": _state_json(space, via_charge),
                        },
                    },
                    1,
                    None,
                )
    return {"agrees": True, "weight_max": spec.weight_max}, 0, None


def cmd_singular(spec: ProblemSpec):
    base = spec.zero_mode_module()
    module = InducedTruncation(base, spec.weight_max)
    dims = {}
    for q in range(spec.weight_max + 1):
        dims[str(q)] = len(singular_vectors(module, q))
    expected = dims["0"] == base.dim and all(
        v == 0 for q, v in dims.items() if q != "0"
    )
    payload = {
        "singular_dims": dims,
        "base_dim": base.dim,
        "induced_recovers_base": expected,
    }
    return payload, 0 if expected else 1, None


def cmd_epsilon_check(spec: ProblemSpec):
    base = spec.zero_mode_module()
    report = check_epsilon(base, spec.weight_max)
    payload = {"passed": bool(report), "details": report.details}
    return payload, 0 if report else 1, None


# Commands with a CSV rendering, and the commands that take an oracle.
_CSV_COMMANDS = ("char", "cohomology", "chi-van")
_ORACLE_COMMANDS = ("chi-van",)

_COMMANDS = {
    "basis": cmd_basis,
    "char": cmd_char,
    "theta-check": cmd_theta_check,
    "cohomology": cmd_cohomology,
    "chi-van": cmd_chi_van,
    "nilpotency": cmd_nilpotency,
    "anticommute": cmd_anticommute,
    "reconstruct-check": cmd_reconstruct_check,
    "singular": cmd_singular,
    "epsilon-check": cmd_epsilon_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chiralg",
        description="Exact chiral characters and BRST cohomology at desk scale.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--spec", required=True, help="path to the problem spec JSON")
    parser.add_argument("--out", default=None, help="write the result document here")
    parser.add_argument("--oracle", choices=["theta", "none"], default="none")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in _CSV_COMMANDS:
        print(f"error: '{args.command}' has no CSV output", file=sys.stderr)
        return 2
    if args.oracle != "none" and args.command not in _ORACLE_COMMANDS:
        print(f"error: '{args.command}' takes no oracle", file=sys.stderr)
        return 2

    # ValueError covers undecodable bytes, bad JSON and over-long integer
    # literals; RecursionError a too deeply nested document
    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        spec = ProblemSpec(doc, validate_lie=(args.command != "nilpotency"))
        options = {"oracle": args.oracle} if args.command in _ORACLE_COMMANDS else {}
        payload, code, extra = _COMMANDS[args.command](spec, **options)
    except UnboundedBasisError as exc:  # raised only for the x_0 torus weights
        print(f"error: spec.torus_weights.x: {exc}", file=sys.stderr)
        return 2
    except (SpecError, FockError, SeriesError, CohomologyError, ModuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a failed check
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = int((time.monotonic() - start) * 1000)

    if args.format == "csv" and hasattr(extra, "dims"):
        text = _table_csv(extra)
    elif args.format == "csv":
        text = _series_csv(extra, spec.z_window)
    else:
        result = {
            "command": args.command,
            "spec": doc,
            "payload": payload,
            "exit_code": code,
            "timing_ms": elapsed_ms,
            "version": __version__,
            "conventions_sha256": LEDGER_HASH,
        }
        text = json.dumps(result, sort_keys=True, indent=2) + "\n"

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
