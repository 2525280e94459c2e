#!/usr/bin/env python3
"""apes-eval benchmark: CLI throughput per workload, layer times when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shuffle_sweep --seed 1 --seconds 35 --trace 0

The inputs come from ``apes_eval.synth`` and the seed before any timing.
With ``--trace 0`` the harness times ``python -m apes_eval.cli`` calls as
subprocesses, one after another (a closed loop with one client): the
workload's call plan once, then its calls again, each kind of call for its
share of ``--seconds``; each metric uses the median wall time per call.
With ``--trace 1`` it runs the same plan in this process instead,
alternating traced and untraced passes, and reports per-layer self times
and counts.  Every call's output is checked: exit status, sha256 digest
(pinned in digests.json for seed 0, otherwise equal to the same call's
first output in the run) and the workload's properties.

The last line of stdout is the result JSON; the line before it records the
environment and the input shape.  The full record, with the spans of a
traced run, is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

CALL_TIMEOUT_S = 60
IMPORT_PROBES = 5


def cli_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("APES_EVAL_THREADS", None)
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """One CLI call as run: exit code, wall seconds, peak RSS and output."""

    name: str
    code: int
    wall: float
    rss_mb: float
    output: bytes
    stderr: bytes = b""


def run_cli(call, work: str) -> Outcome:
    """Run one call as a subprocess and reap it with os.wait4, which gives
    this child's own peak RSS (with its reaped descendants), where
    RUSAGE_CHILDREN would give the maximum over every child so far."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "apes_eval.cli", *call.argv],
            cwd=ROOT, env=cli_env(), stdout=out, stderr=err, start_new_session=True,
        )
        killer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    output = b""
    if code == 0:
        with open(call.out or out_path, "rb") as handle:
            output = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    return Outcome(call.name, code, wall, usage.ru_maxrss / 1024.0, output, stderr)


def run_in_process(call, tracer=None) -> Outcome:
    """Run one call through apes_eval.cli.main in this process."""
    from apes_eval import cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            if tracer is None:
                code = cli.main(call.argv)
            else:
                tracer.call_name = call.name
                code = tracer.span(f"cli.{call.kind}", cli.main)(call.argv)
        except Exception as exc:  # a crash is a failed call, not a benchmark crash
            print(f"perfbench: {call.name} raised {exc!r}", file=sys.stderr)
            code = -1
    wall = time.perf_counter() - start
    output = b""
    if code == 0:
        if call.out:
            with open(call.out, "rb") as handle:
                output = handle.read()
        else:
            output = buffer.getvalue().encode("utf-8")
    return Outcome(call.name, code, wall, 0.0, output)


class Checker:
    """Counts attempted and failed calls.  A call fails on a nonzero exit,
    a digest other than the pinned one (or, unpinned, than the same call's
    first output in this run), or an output that broke a workload property.

    Properties are checked on complete passes over the plan; a later
    output of the same call must have the same digest, so it breaks a
    property exactly when that pass's output did."""

    def __init__(self, pinned: dict[str, str]):
        self.pinned = dict(pinned)
        self.broken: set[tuple[str, str]] = set()  # (call name, digest)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, outcomes: list[Outcome], plan=None) -> None:
        if plan is not None:
            outputs = {o.name: o.output for o in outcomes if o.code == 0}
            self.broken |= {(name, digest(outputs[name])) for name in plan.check(outputs)}
        for o in outcomes:
            self.attempted += 1
            key = digest(o.output)
            if o.code != 0 or self.pinned.setdefault(o.name, key) != key or (o.name, key) in self.broken:
                self.failed += 1
                tail = o.stderr.decode("utf-8", "replace").strip()[-300:]
                self.failures.append(f"{o.name} (exit {o.code}) {tail}")


def measure(plan, checker: Checker, work: str, seconds: float) -> tuple[dict, dict]:
    """Closed loop of CLI subprocesses; returns (metrics, info).

    A first pass runs every call once and checks the workload's properties;
    calls then repeat until `seconds` have passed.  Each throughput metric
    is its kind's work divided by the sum over its calls of the median wall
    time of each call."""
    import workloads

    checker.record([run_cli(workloads.SETUP, work)])  # warm-up: bytecode and page caches
    start = time.perf_counter()
    first = [run_cli(call, work) for call in [workloads.SETUP, *plan.calls]]
    checker.record(first, plan)
    outcomes = list(first)
    timed = [c for c in [workloads.SETUP, *plan.calls] if c.timed]
    cycles = {kind: itertools.cycle([c for c in timed if c.kind == kind]) for kind in plan.shares}
    spent = {kind: sum(o.wall for c, o in zip([workloads.SETUP, *plan.calls], first)
                       if c.kind == kind and c.timed)
             for kind in plan.shares}
    while time.perf_counter() - start < seconds:
        kind = min(plan.shares, key=lambda k: spent[k] / plan.shares[k])
        outcome = run_cli(next(cycles[kind]), work)
        checker.record([outcome])
        outcomes.append(outcome)
        spent[kind] += outcome.wall

    walls: dict[str, list[float]] = {}
    for o in outcomes:
        walls.setdefault(o.name, []).append(o.wall)

    def rate(kind, work_of):
        calls = [c for c in timed if c.kind == kind]
        return sum(work_of(c) for c in calls) / sum(statistics.median(walls[c.name]) for c in calls)

    metrics = {
        "setup_s": (statistics.median(walls["setup"]), "s"),
        "evaluate_docs_per_s": (rate("evaluate", lambda c: c.docs), "1/s"),
        "qgen_docs_per_s": (rate("qgen", lambda c: c.docs), "1/s"),
        "decode_runs_per_s": (rate("decode", lambda c: 1), "1/s"),
        "gradcheck_trials_per_s": (rate("gradcheck", lambda c: c.trials), "1/s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
    }
    info = {
        "samples": {name: len(w) for name, w in walls.items()},
        "walls": walls,
        # 0.000000e+00 on some seeds comes from attnloss's 1e-8 absolute
        # floor; recorded, not read as a fidelity signal.
        "gradcheck_output": next(o.output.decode().strip() for o in first if o.name == "gradcheck"),
    }
    return metrics, info


def import_seconds(checker: Checker) -> float:
    """Median time to import apes_eval.cli in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import apes_eval.cli; "
             "print(time.perf_counter() - t)")
    samples, outcomes = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=cli_env(),
                              capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        outcomes.append(Outcome("import", proc.returncode, 0.0, 0.0, b""))
        if proc.returncode == 0:
            samples.append(float(proc.stdout))
    checker.record(outcomes)
    return statistics.median(samples) if samples else float("nan")


def measure_layers(plan, checker: Checker, seconds: float) -> tuple[dict, dict, list]:
    """Alternate traced and untraced in-process passes over the plan."""
    import tracing

    tracer = tracing.Tracer()
    import_s = import_seconds(checker)
    layers: list[dict] = []
    traced_walls, plain_walls = [], []
    start = time.perf_counter()
    # Stop before a pair of passes that would end past the deadline.
    while not layers or time.perf_counter() - start + traced_walls[-1] + plain_walls[-1] < seconds:
        tracer.run_id += 1
        begin = time.perf_counter()
        with tracing.instrumented(tracer):
            outcomes = [run_in_process(call, tracer) for call in plan.calls]
        traced_walls.append(time.perf_counter() - begin)
        checker.record(outcomes, plan)
        layers.append(tracing.layer_values(tracer, tracer.run_id))

        begin = time.perf_counter()
        outcomes = [run_in_process(call) for call in plan.calls]
        plain_walls.append(time.perf_counter() - begin)
        checker.record(outcomes, plan)

    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else (
            "bytes" if name.endswith("_bytes") else "count")
        metrics[name] = (statistics.median_low(v[name] for v in layers), unit)
    metrics["cli.import_s"] = (import_s, "s")
    traced, plain = statistics.median(traced_walls), statistics.median(plain_walls)
    metrics["trace.overhead_ratio"] = (traced / plain - 1.0, "ratio")
    info = {"passes": len(layers), "traced_pass_s": traced_walls, "untraced_pass_s": plain_walls}
    return metrics, info, tracer.dump()


def environment(seed: int) -> dict:
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
    ) if shutil.which("git") else None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit.stdout.strip() if commit and commit.returncode == 0 else None,
        "seed": seed,
    }


def pinned_digests(workload: str, scale: str, seed: int) -> dict[str, str]:
    if seed != 0:
        return {}
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(f"{workload}/{scale}/seed0", {})


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str = "full") -> dict:
    """Build the inputs, measure, and return the full record."""
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        plan = workloads.build(workload, seed, work, scale)
        checker = Checker(pinned_digests(workload, scale, seed))
        spans = []
        if traced:
            metrics, info, spans = measure_layers(plan, checker, seconds)
        else:
            metrics, info = measure(plan, checker, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "scale": scale,
        "trace": int(traced),
        "environment": environment(seed),
        "shape": plan.shape,
        "info": info,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted,
        "failures": checker.failures[:20],
        "metrics": metrics,
        "spans": spans,
    }


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "apes_eval", "cli.py")):
        print(f"perfbench: no apes_eval sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for failure in record["failures"]:
        print(f"perfbench: failed call: {failure}", file=sys.stderr)
    summary = {k: record[k] for k in ("environment", "shape", "error_rate")}
    summary["info"] = {k: v for k, v in record["info"].items() if not isinstance(v, (list, dict))}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
