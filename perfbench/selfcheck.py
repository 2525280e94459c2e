#!/usr/bin/env python3
"""Self-check of the benchmark harness at a tiny input size.

    python3 perfbench/selfcheck.py          # check, exit 1 on any FAIL
    python3 perfbench/selfcheck.py --pin    # rewrite digests.json for seed 0

Checks, for every workload: one untraced and one traced run finish with no
failed call; an evaluate report with one digit changed counts as a failed
call, against pinned digests (seed 0) and against the run's own first
output (seed 1); and a directory holding only the benchmark makes
run.py exit nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402  (needs apes_eval on the path)


def _one_iteration(workload: str, seed: int, scale: str, work: str):
    plan = workloads.build(workload, seed, work, scale)
    return plan, [run.run_cli(call, work) for call in plan.calls]


def _flip_digit(data: bytes) -> bytes:
    for i, byte in enumerate(data):
        if chr(byte).isdigit():
            return data[:i] + (b"1" if byte != ord("1") else b"2") + data[i + 1:]
    raise ValueError("no digit to change")


def tamper_detected(workload: str, seed: int) -> bool:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
        plan, outcomes = _one_iteration(workload, seed, "tiny", work)
    checker = run.Checker(run.pinned_digests(workload, "tiny", seed))
    checker.record(outcomes, plan)
    clean = checker.failed
    target = next(o for o in outcomes if o.name.startswith("evaluate."))
    target.output = _flip_digit(target.output)
    checker.record(outcomes, plan)
    return clean == 0 and checker.failed == 1


def refuses_without_program() -> bool:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "shuffle_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    return proc.returncode != 0 and not proc.stdout.strip()


def pin() -> None:
    """Digests of every call's output for seed 0, at both scales."""
    pinned = {}
    for scale in ("full", "tiny"):
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
                plan, outcomes = _one_iteration(workload, 0, scale, work)
            checker = run.Checker({})
            checker.record(outcomes, plan)
            if checker.failed:
                raise SystemExit(f"{workload}/{scale}: {checker.failures}")
            pinned[f"{workload}/{scale}/seed0"] = {o.name: run.digest(o.output) for o in outcomes}
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true", help="rewrite digests.json")
    args = parser.parse_args()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    if args.pin:
        pin()
        return 0

    results = []
    for workload in workloads.WORKLOADS:
        for traced in (False, True):
            record = run.run(workload, 0, 0, traced, "tiny")
            results.append((f"{workload} trace={int(traced)} runs clean "
                            f"({record['attempted']} calls)", record["failed"] == 0))
        for seed in (0, 1):
            results.append((f"{workload} seed={seed} tampered report counts as failed",
                            tamper_detected(workload, seed)))
    results.append(("run.py refuses a directory without the program", refuses_without_program()))
    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
