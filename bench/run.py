"""End-to-end benchmark of the chiralg command-line interface.

Run from the root of a checkout:

    python3 bench/run.py --workload capped_derham --seed 1 --seconds 25 --trace 0

One client in one single-threaded process sends the workload's jobs back to
back (a closed loop) through ``chiralg.cli.main`` on spec files generated from
the checked-in templates in ``bench/specs`` and the seed.  A round is one pass
over the workload's jobs; rounds repeat until ``--seconds`` have passed.
Every payload is checked against the expected answers in
``bench/workloads.json``.  A set-up (a fresh import of chiralg and the spec
files) runs before each round.

Every job and every set-up is bracketed by blocks of a fixed reference
kernel (``reference.py``) and its time rescaled to a nominal host speed, so
that the phases in which a shared host runs slower cancel.  ``solve_s`` is
the median rescaled round and ``setup_s`` the median rescaled set-up, so that
a burst of interference from other tenants of the machine moves neither.

With ``--trace 0`` the last output line reports the end-to-end metrics of
BENCHMARK.json, measured untraced.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced (see ``spans.py``), and the
last line reports the per-layer metrics of the median traced round.  The
line before it records the platform and the raw samples.  Spec files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Seeded choices: the coefficient c of each potential and the diagonal
# rescaling of a Lie basis.  Neither changes any expected answer.
COEFFS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2")
SCALES = ("1", "-1", "2", "-2", "1/2", "-1/2")

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402  (bench/reference.py)
import spans  # noqa: E402  (bench/spans.py)


class Job(NamedTuple):
    command: str
    path: str
    expect: dict  # dotted payload path -> expected value


# -- seeded inputs ---------------------------------------------------------------


def _seeded(spec: dict, rng: random.Random) -> dict:
    for term in spec.get("potential", {}).get("terms", []):
        if term["coeff"] == "$c":
            term["coeff"] = rng.choice(COEFFS)
    lie = spec.get("lie")
    if lie is not None:
        # basis e_i -> s_i e_i gives c^k_ij -> c^k_ij s_i s_j / s_k
        s = [Fraction(rng.choice(SCALES)) for _ in range(lie["dim"])]
        lie["c"] = [
            [k, i, j, str(Fraction(v) * s[i - 1] * s[j - 1] / s[k - 1])]
            for k, i, j, v in lie["c"]
        ]
    return spec


def make_jobs(workload: str, seed: int) -> list:
    """Write the workload's seeded spec files; return its jobs with their answers."""
    doc = json.loads((BENCH / "workloads.json").read_text())[workload]
    rng = random.Random(f"{workload}:{seed}")
    workdir = WORK / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, job in enumerate(doc["jobs"]):
        spec = _seeded(json.loads((BENCH / "specs" / job["spec"]).read_text()), rng)
        path = workdir / f"{i}-{job['spec']}"
        path.write_text(json.dumps(spec, indent=1) + "\n")
        jobs.append(Job(job["command"], str(path), job["expect"]))
    return jobs


def setup(workload: str, seed: int):
    """Import chiralg afresh and generate the inputs; returns (seconds, main, jobs)."""
    for name in [n for n in sys.modules if n == "chiralg" or n.startswith("chiralg.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    cli = importlib.import_module("chiralg.cli")
    jobs = make_jobs(workload, seed)
    return time.perf_counter() - t0, cli.main, jobs


# -- checking --------------------------------------------------------------------

_MISSING = object()


def _at(payload, path: str):
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            return None
    return None


def same(got, want) -> bool:
    """Exact comparison by value: 0, 0.0 and "0" are equal; True and 1 are not."""
    if isinstance(want, bool) or want is None:
        return got is want
    if isinstance(want, (int, float)):
        return _number(got) == want
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], v) for k, v in want.items())
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    return got == want


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, job: Job, code, payload) -> bool:
        self.attempted += 1
        ok = code == 0 and all(
            same(_at(payload, path), want) for path, want in job.expect.items()
        )
        if not ok:
            self.failed += 1
        return ok


def count_floats(node) -> int:
    if isinstance(node, float):
        return 1
    if isinstance(node, dict):
        return sum(count_floats(v) for v in node.values())
    if isinstance(node, list):
        return sum(count_floats(v) for v in node)
    return 0


def _corrupted(payload, expect: dict):
    """A copy of the payload with the first expected value changed."""
    bad = json.loads(json.dumps(payload))
    path = next(iter(expect))
    *parents, leaf = path.split(".")
    node = bad
    for part in parents:
        node = node[part]
    value = node[leaf]
    if isinstance(value, bool):
        node[leaf] = not value
    elif _number(value) is not None:
        node[leaf] = str(_number(value) + 1)
    elif isinstance(value, dict):
        node[leaf] = {**value, "corrupted": 1}
    else:
        node[leaf] = [value]
    return bad


def checker_self_test(jobs: list, payloads: list) -> bool:
    """The checker must pass each real payload and fail a corrupted copy of it
    and a non-zero exit code."""
    for job, payload in zip(jobs, payloads):
        checker = Checker()
        checker.check(job, 0, payload)
        checker.check(job, 0, _corrupted(payload, job.expect))
        checker.check(job, 1, payload)
        if (checker.attempted, checker.failed) != (3, 2):
            return False
    return True


# -- the closed loop -------------------------------------------------------------


def run_round(main, jobs, checker, recorder=None):
    """One pass over the jobs.

    Each job is timed from sent to payload verified, between two reference
    blocks.  Returns (seconds, rescaled seconds, payloads, float count).
    """
    gc.collect()
    payloads = []
    floats = 0
    seconds = rescaled = 0.0
    before = reference.block()
    for job in jobs:
        if recorder is not None:
            recorder.begin_job()
        t0 = time.perf_counter()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main([job.command, "--spec", job.path])
            payload = json.loads(out.getvalue())["payload"]
        except Exception:
            traceback.print_exc()
            code, payload = None, None
        checker.check(job, code, payload)
        elapsed = time.perf_counter() - t0
        after = reference.block()
        seconds += elapsed
        rescaled += reference.scaled(elapsed, before, after)
        before = after
        floats += count_floats(payload)
        payloads.append(payload)
    return seconds, rescaled, payloads, floats


def measure(seconds, prepare, checker, recorder=None):
    """Rounds back to back for ``seconds`` (at least one).

    ``prepare()`` gives each round's (main, jobs).  Returns the round times,
    the rescaled round times, the traced rounds' per-layer samples, and the
    jobs and payloads of the last round.
    """
    solve, rescaled, layers = [], [], []
    start = time.perf_counter()
    while not solve or time.perf_counter() - start < seconds:
        main, jobs = prepare()
        if recorder is not None:
            recorder.begin_round()
        elapsed, scaled, payloads, floats = run_round(main, jobs, checker, recorder)
        solve.append(elapsed)
        rescaled.append(scaled)
        if recorder is not None:
            sample = recorder.metrics()
            sample["harness.self_s"] = elapsed - recorder.root_s
            sample["trace.solve_s"] = elapsed
            sample["cli.payload_floats"] = floats
            layers.append(sample)
    return solve, rescaled, layers, jobs, payloads


# -- reporting -------------------------------------------------------------------


def platform_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in doc[group]}
        for group in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = json.loads((BENCH / "workloads.json").read_text())
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics()
    moved = {m for names in workloads[args.workload]["moves"].values() for m in names}
    if not moved <= declared["per_layer"].keys():
        unknown = sorted(moved - declared["per_layer"].keys())
        raise SystemExit(f"workloads.json names unknown per-layer metrics: {unknown}")

    setups, setups_rescaled = [], []

    def fresh():
        before = reference.block()
        seconds, cli_main, jobs = setup(args.workload, args.seed)
        setups.append(seconds)
        setups_rescaled.append(reference.scaled(seconds, before, reference.block()))
        return cli_main, jobs

    checker = Checker()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **platform_record()}
    if args.trace == 0:
        solve, rescaled, _, jobs, payloads = measure(args.seconds, fresh, checker)
        metrics = {
            "solve_s": statistics.median(rescaled),
            "setup_s": statistics.median(setups_rescaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_ratio": (checker.attempted - checker.failed) / checker.attempted,
        }
        group = "end_to_end"
    else:
        cli_main, jobs = fresh()
        solve, rescaled, _, _, _ = measure(args.seconds / 2, lambda: (cli_main, jobs), checker)
        recorder = spans.Recorder()
        package = {n: m for n, m in sys.modules.items() if n == "chiralg" or n.startswith("chiralg.")}
        traced_main = spans.install(recorder, package)
        traced, _, layers, jobs, payloads = measure(
            args.seconds / 2, lambda: (traced_main, jobs), checker, recorder
        )
        record["traced_solve_s_samples"] = traced
        middle = statistics.median_high(traced)
        metrics = next(s for s in layers if s["trace.solve_s"] == middle)
        metrics["trace.overhead_s"] = middle - statistics.median(solve)
        group = "per_layer"
    record["solve_s_samples"] = solve
    record["solve_s_rescaled_samples"] = rescaled
    record["setup_s_samples"] = setups
    record["setup_s_rescaled_samples"] = setups_rescaled

    units = declared[group]
    if metrics.keys() != units.keys():
        raise SystemExit(
            f"metrics differ from BENCHMARK.json {group}: "
            f"{sorted(metrics.keys() ^ units.keys())}"
        )
    correct = checker.failed == 0 and checker_self_test(jobs, payloads)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
