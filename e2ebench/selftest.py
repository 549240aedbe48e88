#!/usr/bin/env python3
"""Self-test of the benchmark: toy-size runs, and proof that the checks are live.

    python3 e2ebench/selftest.py

1. Runs every workload at toy sizes (--tiny), untraced and traced, and
   requires a correct result with exactly the metric names BENCHMARK.json
   lists for that mode.
2. Runs each toy workload once more, then feeds single corrupted outputs
   to the same judging code and requires each to count as one failure.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import checks
import run
import workloads

SEED = 3


def result_of(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def tiny_runs(spec: dict) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                             "--trace", str(trace), "--tiny"])
            want = {m["name"] for m in spec[key]}
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: not correct: {res}")
            if set(res["metrics"]) != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(res['metrics'])}")
            print(f"tiny {name} trace={trace}: attempted {res['attempted']}, failed {res['failed']}")
    return problems


def _swap_lines(out: bytes) -> bytes:
    lines = out.split(b"\n")
    lines[0], lines[1] = lines[1], lines[0]
    return b"\n".join(lines)


def _drop_subset(out: bytes) -> bytes:
    first, rest = out.split(b"\n", 1)
    return first[: first.rindex(b"{")] + b"\n" + rest


def _bump_first_number(out: bytes) -> bytes:
    head, _, tail = out.partition(b" ")
    return str(int(head.split(b"\n")[0]) + 1).encode() + (b" " + tail if tail else b"\n")


def corruption_cases(workdir: Path) -> list[str]:
    """Each corrupted output must add exactly one failure."""
    problems = []
    for name in workloads.WORKLOADS:
        runner = run.Runner(workdir)
        workload = workloads.build(name, SEED, workdir, tiny=True)
        results = runner.run_commands(workload.commands)
        if runner.failures:
            return [f"{name}: clean toy pass failed: {runner.failures}"]
        cases = []
        for i, (cmd, res) in enumerate(zip(workload.commands, results)):
            verb = cmd.args[0]
            if verb == "enumerate-mifs":
                cases.append((f"{verb}: two lines swapped", i, replace(res, out=_swap_lines(res.out))))
                cases.append((f"{verb}: one set dropped", i, replace(res, out=_drop_subset(res.out))))
            elif verb in ("lambda", "sigma-complete", "sigma"):
                cases.append((f"{verb}: number off by one", i,
                              replace(res, out=_bump_first_number(res.out))))
                cases.append((f"{verb}: traceback on stderr", i,
                              replace(res, err=b"Traceback (most recent call last):\n")))
            elif verb == "verify-cover" and res.code == 1:
                cases.append((f"{verb}: tampered certificate accepted", i,
                              replace(res, code=0, out=b"accept\n")))
            elif verb == "construct-cover":
                cases.append((f"{verb}: wrong exit code", i, replace(res, code=3)))
        for label, i, corrupted in cases:
            before = len(runner.failures)
            runner.judge(i, workload.commands[i], corrupted)
            added = len(runner.failures) - before
            print(f"corrupt {name}: {label}: {added} failure(s) counted")
            if added != 1:
                problems.append(f"{name}: {label}: counted {added} failures")
        # A certificate that no longer covers must fail construct-cover's check.
        for i, (cmd, res) in enumerate(zip(workload.commands, results)):
            if cmd.args[0] == "construct-cover":
                cert = Path(cmd.args[cmd.args.index("--out") + 1])
                g = _graph_of(cert)
                broken, _ = checks.tamper(cert.read_text(), g, 0, True)
                cert.write_text(broken)
                before = len(runner.failures)
                runner.judge(i, cmd, res)
                added = len(runner.failures) - before
                print(f"corrupt {name}: certificate edited to miss a triple: {added} failure(s) counted")
                if added != 1:
                    problems.append(f"{name}: edited certificate counted {added} failures")
                break
    return problems


def _graph_of(cert: Path) -> tuple:
    doc = json.loads(cert.read_text())
    return doc["n"], [tuple(e) for e in doc["edges"]]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = tiny_runs(spec)
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        problems += corruption_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
