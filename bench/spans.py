"""In-memory span recorder for the traced run of the benchmark.

``install`` wraps the public functions of chiralg's modules at their import
sites: ``from .linalg import rank`` binds ``chiralg.cohomology.rank``, and
that binding is replaced by a wrapper.  Calls inside the defining module stay
unwrapped, apart from the few methods and same-module calls in ``_EXTRA``.
Nothing in the package itself is edited.

Every wrapped call is a span (id, name, start, end, parent id, job id).  A
span's self time is its duration minus the time covered by its child spans,
accumulated as each span closes.  The recorder times its own bookkeeping,
keeps it out of every span and reports it as ``trace.recorder_s``.  After
``SPAN_LIMIT`` calls of one name in one job, further calls only update that
name's aggregate of count, total and self time: ``normal_order`` called from
``check_nilpotent`` runs about |terms|^2 times per job.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref

LAYERS = ("fock", "oper", "charges", "linalg", "cohomology", "qseries", "modfun", "cli")
SPAN_LIMIT = 10_000

# (module, owner attribute or None, attribute, span name) wrapped in place in
# addition to the import sites.
_EXTRA = (
    ("linalg", None, "rank", "linalg.rank"),
    ("oper", None, "instantiate_charge", "oper.instantiate_charge"),
    ("modfun", None, "singular_vectors", "modfun.singular_vectors"),
    ("oper", "ChargeOperator", "__call__", "oper.ChargeOperator.apply"),
    ("qseries", "TruncatedSeries", "invert", "qseries.invert"),
    ("qseries", "TruncatedSeries", "mul", "qseries.mul"),
)

# Span names reported with their call counts, with their self times, and the
# counters the probes below keep per round.
_CALLS = (
    "linalg.rank", "linalg.kernel_basis", "linalg.intersection_dim",
    "oper.ChargeOperator.apply", "oper.instantiate_charge", "oper.normal_order",
    "fock.enumerate_basis",
)
_SELF_TIMES = _CALLS + (
    "charges.check_nilpotent", "charges.check_anticommute",
    "qseries.chi_closed_form", "qseries.invert", "qseries.mul", "qseries.compare",
    "modfun.singular_vectors", "modfun.check_epsilon", "cli.main",
)
_COUNTERS = (
    "linalg.rank.nnz", "linalg.rank.cells", "linalg.rank.repeats",
    "linalg.kernel_basis.nnz", "linalg.kernel_basis.cells", "linalg.largest_cells",
    "oper.instantiate_charge.terms",
    "oper.ChargeOperator.apply.monomials", "oper.ChargeOperator.apply.repeats",
    "fock.enumerate_basis.monomials", "fock.enumerate_basis.weight_repeats",
)


def _rows_and_nnz(columns):
    rows = set()
    nnz = 0
    for col in columns:
        rows.update(col)
        nnz += len(col)
    return len(rows), nnz


class Recorder:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.counts = {}
        self.spans = []
        self.stack = []  # open spans: [span id, child time]
        self.job = 0
        self.next_id = 0
        self.root_s = 0.0
        self.recorder_s = 0.0
        self._ops = weakref.WeakKeyDictionary()  # ChargeOperator -> [charge id, applied monomials]
        self._charge_ids = {}
        self.begin_round()
        self.begin_job()

    # -- rounds and jobs ---------------------------------------------------------

    def begin_round(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self.spans = []
        self.root_s = 0.0
        self.recorder_s = 0.0

    def begin_job(self):
        self.job += 1
        self._job_calls = {}
        self._ranked = set()
        self._enumerated = set()
        self._applied = set()

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, name, fn):
        before, after = _PROBES.get(name, (None, None))
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        pc = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = pc()
            if before is not None:
                before(rec, *args, **kwargs)
            stack = rec.stack
            span_id = rec.next_id
            rec.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t1 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = pc()
                stack.pop()
            dur = t2 - t1
            stats[0] += 1
            stats[1] += dur
            stats[2] += dur - frame[1]
            calls = rec._job_calls[name] = rec._job_calls.get(name, 0) + 1
            if calls <= SPAN_LIMIT:
                rec.spans.append((span_id, name, t1, t2, parent, rec.job))
            if after is not None:
                after(rec, result, *args, **kwargs)
            t3 = pc()
            if stack:
                stack[-1][1] += t3 - t0
            else:
                rec.root_s += t3 - t0
            rec.recorder_s += (t1 - t0) + (t3 - t2)
            return result

        return traced

    # -- per-round metrics -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the round recorded since ``begin_round``."""
        st, c = self.stats, self.counts

        def calls(name):
            return st.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return st.get(name, (0, 0.0, 0.0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = sum(
                s[2] for n, s in st.items() if n.split(".", 1)[0] == layer
            )
        out.update((f"{name}.calls", calls(name)) for name in _CALLS)
        out.update((f"{name}.self_s", self_s(name)) for name in _SELF_TIMES)
        out.update((name, c[name]) for name in _COUNTERS if not name.endswith("repeats"))
        out["linalg.rank.repeat_ratio"] = ratio(c["linalg.rank.repeats"], calls("linalg.rank"))
        out["oper.charge_operator.builds"] = calls("oper.charge_operator")
        out["oper.ChargeOperator.apply.repeat_ratio"] = ratio(
            c["oper.ChargeOperator.apply.repeats"], c["oper.ChargeOperator.apply.monomials"]
        )
        out["fock.enumerate_basis.weight_repeat_ratio"] = ratio(
            c["fock.enumerate_basis.weight_repeats"], calls("fock.enumerate_basis")
        )
        out["trace.recorder_s"] = self.recorder_s
        return out


# -- probes: counts taken at the span boundary, outside the span's time --------


def _largest(rec, cells):
    if cells > rec.counts["linalg.largest_cells"]:
        rec.counts["linalg.largest_cells"] = cells


def _rank_probe(rec, columns):
    rows, nnz = _rows_and_nnz(columns)
    cells = rows * len(columns)
    rec.counts["linalg.rank.nnz"] += nnz
    rec.counts["linalg.rank.cells"] += cells
    _largest(rec, cells)
    content = hash(tuple(frozenset(col.items()) for col in columns))
    if content in rec._ranked:
        rec.counts["linalg.rank.repeats"] += 1
    else:
        rec._ranked.add(content)


def _kernel_probe(rec, columns, n_cols=None):
    rows, nnz = _rows_and_nnz(columns)
    cells = rows * (len(columns) if n_cols is None else n_cols)
    rec.counts["linalg.kernel_basis.nnz"] += nnz
    rec.counts["linalg.kernel_basis.cells"] += cells
    _largest(rec, cells)


def _enumerate_probe(rec, space, weight, **_):
    key = (space, weight)
    if key in rec._enumerated:
        rec.counts["fock.enumerate_basis.weight_repeats"] += 1
    else:
        rec._enumerated.add(key)


def _enumerate_done(rec, result, *args, **kwargs):
    rec.counts["fock.enumerate_basis.monomials"] += len(result)


def _instantiate_done(rec, result, *args, **kwargs):
    rec.counts["oper.instantiate_charge.terms"] += len(result)


def _operator_built(rec, op, charge, space, window):
    charge_id = rec._charge_ids.setdefault((charge, space), len(rec._charge_ids))
    rec._ops[op] = [charge_id, set()]


def _apply_probe(rec, op, state):
    """Count monomials an operator computes although an operator for the same
    charge already computed them in this job; repeats served from the
    operator's own cache are not counted."""
    charge_id, seen = rec._ops.setdefault(op, [("operator", id(op)), set()])
    rec.counts["oper.ChargeOperator.apply.monomials"] += len(state.terms)
    for mono in state.terms:
        if mono in seen:
            continue
        seen.add(mono)
        key = (charge_id, mono)
        if key in rec._applied:
            rec.counts["oper.ChargeOperator.apply.repeats"] += 1
        else:
            rec._applied.add(key)


_PROBES = {
    "linalg.rank": (_rank_probe, None),
    "linalg.kernel_basis": (_kernel_probe, None),
    "fock.enumerate_basis": (_enumerate_probe, _enumerate_done),
    "oper.instantiate_charge": (None, _instantiate_done),
    "oper.charge_operator": (None, _operator_built),
    "oper.ChargeOperator.apply": (_apply_probe, None),
}


def install(rec: Recorder, package_modules: dict):
    """Wrap chiralg's public functions where other chiralg modules import them.

    ``package_modules`` maps each loaded ``chiralg.*`` module name to the
    module.  Returns the wrapped ``chiralg.cli.main``, which the harness calls
    for every job.
    """
    wrappers = {}

    def wrapped(name, fn):
        if name not in wrappers:
            wrappers[name] = rec.wrap(name, fn)
        return wrappers[name]

    for layer in LAYERS[:-1]:
        home = package_modules[f"chiralg.{layer}"]
        for attr, fn in list(vars(home).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != home.__name__:
                continue
            for site in package_modules.values():
                if site is not home and vars(site).get(attr) is fn:
                    setattr(site, attr, wrapped(f"{layer}.{attr}", fn))
    for layer, owner, attr, name in _EXTRA:
        target = package_modules[f"chiralg.{layer}"]
        if owner is not None:
            target = getattr(target, owner)
        fn = vars(target)[attr]
        setattr(target, attr, wrapped(name, fn))
    cli = package_modules["chiralg.cli"]
    return rec.wrap("cli.main", cli.main)
