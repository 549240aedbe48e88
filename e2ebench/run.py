#!/usr/bin/env python3
"""End-to-end benchmark of the orcov CLI.

    python3 e2ebench/run.py --workload mif-catalog --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every command is a fresh
`python -m orcov ...` process against the checkout's src/, one at a
time.  With --trace 0 the workload's command list is repeated for
--seconds (always at least once); each time metric is a mean over the
passes, calibrated against a fixed slice of pure-Python work run on
the same CPU between the commands (end_to_end says why).  With
--trace 1 the commands run once through the CLI, then traced.py replays them in-process, one
timed public call per layer, repeated in fresh processes for --seconds;
per-layer metrics are medians over the replays.  Every output is
checked (checks.py).

Lines before the last on stdout describe the run (provenance, sample
counts, per-group times, failures).  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 2 without a result when the checkout has no src/orcov.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The kernel the baseline measured.  A run on another backend is not
# comparable with it and is reported as a failed provenance check.
BASELINE_BACKEND = "pure"
SETUP_STARTS_PER_PASS = 3
# Time calibration (see end_to_end): reference slices before each spawn,
# and the slice time that defines the nominal speed.
REF_SLICES_PER_SPAWN = 2
REF_NOMINAL_S = 0.014
TRACEBACK = b"Traceback (most recent call last)"


@dataclass
class Outcome:
    code: int
    out: bytes
    err: bytes
    wall: float
    rss_kb: int


def child_env() -> dict[str, str]:
    """The caller's environment minus settings that change what is measured.

    ORCOV_* select the kernel and capacity; PYTHONDONTWRITEBYTECODE and
    PYTHONUNBUFFERED change start-up and output costs.  Children run
    as a default interpreter would: bytecode cached under src/, stdout
    block-buffered.
    """
    dropped = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ORCOV_") and k not in dropped}
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_work() -> int:
    """A fixed slice of pure-Python work (bit operations, a dict, a sort,
    string and JSON formatting) that uses no orcov code."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(30000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc += (m & -m).bit_length() + (m >> 7 & m).bit_count()
        counts[m & 4095] = counts.get(m & 4095, 0) + 1
    rows = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    text = ",".join(f"{k}:{v}" for k, v in rows)
    return acc + len(text) + len(json.dumps(rows))


class Runner:
    """Spawns one child at a time and keeps the run's tallies."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.ref: Optional[list[float]] = None  # reference slice times, when calibrating
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict[tuple, Optional[str]] = {}
        self._first_digest: dict[int, str] = {}

    def spawn(self, argv: list[str]) -> Outcome:
        if self.ref is not None:
            for _ in range(REF_SLICES_PER_SPAWN):
                t0 = time.perf_counter()
                reference_work()
                self.ref.append(time.perf_counter() - t0)
        with open(self.workdir / "stdout", "w+b") as out, open(self.workdir / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss)

    def orcov(self, args: list[str]) -> Outcome:
        return self.spawn([sys.executable, "-m", "orcov", *args])

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def judge(self, index: int, cmd: workloads.Command, res: Outcome) -> None:
        """Count one attempted command; record it as failed if any check fails.

        A check reads only stdout and the files named in the command, so
        its verdict is cached on their digests.  Stdout must also repeat
        byte for byte in every pass.
        """
        self.attempted += 1
        digest = hashlib.sha256(res.out)
        for arg in cmd.args:
            if os.path.isabs(arg) and os.path.isfile(arg):
                digest.update(Path(arg).read_bytes())
        key = (index, res.code, digest.hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = cmd.check(res.code, res.out)
        reason = self._verdicts[key]
        if TRACEBACK in res.err:
            reason = "traceback on stderr"
        out_digest = hashlib.sha256(res.out).hexdigest()
        if self._first_digest.setdefault(index, out_digest) != out_digest:
            reason = reason or "stdout differs from the first pass"
        if reason:
            self.fail(f"orcov {' '.join(cmd.args)}: {reason}")

    def run_commands(self, commands: list[workloads.Command]) -> list[Optional[Outcome]]:
        """One pass; None for a command whose preparation failed (not run)."""
        results: list[Optional[Outcome]] = []
        for index, cmd in enumerate(commands):
            if cmd.prepare is not None:
                reason = cmd.prepare()
                if reason:
                    self.attempted += 1
                    self.fail(f"orcov {' '.join(cmd.args)}: {reason}")
                    results.append(None)
                    continue
            res = self.orcov(cmd.args)
            self.judge(index, cmd, res)
            results.append(res)
        return results


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def provenance(runner: Runner, workload: workloads.Workload, seed: int) -> dict:
    probe = runner.spawn([sys.executable, "-c",
                          "import orcov; print(orcov.KERNEL_BACKEND); print(orcov.__file__)"])
    runner.attempted += 1
    lines = probe.out.decode(errors="replace").split()
    backend, module = (lines + ["?", "?"])[:2]
    if probe.code != 0:
        runner.fail(f"import orcov failed with exit code {probe.code}")
    elif not Path(module).resolve().is_relative_to(SRC.resolve()):
        runner.fail(f"orcov imported from {module}, not from {SRC}")
    elif backend != BASELINE_BACKEND:
        runner.fail(f"kernel backend {backend!r} differs from the baseline's "
                    f"{BASELINE_BACKEND!r}: not comparable")
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs_sha256": workload.inputs,
        "kernel_backend": backend,
        "baseline_backend": BASELINE_BACKEND,
        "orcov_file": module,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def check_against_earlier_runs(runner: Runner, key: str, outputs: list[Optional[Outcome]]) -> None:
    """Stdout must be byte-identical to earlier runs of the same seed and source."""
    digests = [None if o is None else hashlib.sha256(o.out).hexdigest() for o in outputs]
    record = WORK / "digests" / f"{key}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    if record.exists():
        earlier = json.loads(record.read_text())
        runner.attempted += 1
        if earlier != digests:
            runner.fail(f"stdout differs from an earlier run with the same seed ({record.name})")
    else:
        record.write_text(json.dumps(digests))


def measure_setup(runner: Runner, starts: int) -> list[float]:
    walls = []
    for _ in range(starts):
        res = runner.orcov(["lambda", "1"])
        runner.attempted += 1
        if res.code != 0 or res.out != b"1 computed\n" or TRACEBACK in res.err:
            runner.fail(f"orcov lambda 1: exit {res.code}, stdout {res.out[:40]!r}")
        walls.append(res.wall)
    return walls


def end_to_end(runner: Runner, workload: workloads.Workload, seconds: float,
               history_key: str) -> tuple[dict, dict]:
    """Repeat the command list for `seconds`; report calibrated mean times.

    On a shared 2-vCPU virtual machine the CPU ran a command at one of two
    speeds, about 1.7x apart, switching several times a second, and the
    share of slow time drifted over minutes: the middle half of 10
    30-second runs of the same code spread by 20 to 45 % of the median,
    with each command's fastest pass as much as with its median.  So every
    spawn is preceded by REF_SLICES_PER_SPAWN slices of reference_work,
    run on the same CPU (main pins the run to one), and each time metric
    is its mean over the run scaled by REF_NOMINAL_S / (mean slice time):
    seconds at the speed where a slice takes REF_NOMINAL_S.  Drift in host
    speed moves both means alike and cancels; a change to orcov moves only
    the commands.  Raw times are on the detail line.
    """
    setup: list[float] = []
    runner.ref = []
    samples: list[list[float]] = [[] for _ in workload.commands]
    peak_kb = 0
    passes = 0
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        setup += measure_setup(runner, SETUP_STARTS_PER_PASS)
        results = runner.run_commands(workload.commands)
        if not passes:
            check_against_earlier_runs(runner, history_key, results)
        for times, res in zip(samples, results):
            if res is not None:
                times.append(res.wall)
                peak_kb = max(peak_kb, res.rss_kb)
        passes += 1

    def by_group(reduce) -> dict[str, float]:
        groups = {cmd.group: 0.0 for cmd in workload.commands}
        for cmd, t in zip(workload.commands, samples):
            groups[cmd.group] += reduce(t) if t else 0.0
        return groups

    mean = by_group(statistics.fmean)
    speed = REF_NOMINAL_S / statistics.fmean(runner.ref)
    solve = workloads.SOLVE_GROUP[workload.name]
    metrics = {
        "setup_s": (statistics.fmean(setup) * speed, "s"),
        "wall_s": (sum(mean.values()) * speed, "s"),
        "solve_s": (mean[solve] * speed, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {
        "passes": passes,
        "setup_starts": len(setup),
        "commands_per_pass": len(workload.commands),
        "solve_group": solve,
        "speed_factor": speed,
        "group_calibrated_s": {f"{g}_s": t * speed for g, t in mean.items()},
        "raw_group_mean_s": {f"{g}_s": t for g, t in mean.items()},
        "raw_group_best_s": {f"{g}_s": t for g, t in by_group(min).items()},
        "raw_setup_mean_s": statistics.fmean(setup),
        "ref_slice_s": {"mean": statistics.fmean(runner.ref), "min": min(runner.ref),
                        "max": max(runner.ref), "count": len(runner.ref)},
        "setup_samples_s": setup,
        "command_samples_s": {" ".join(c.args[:1] + [Path(a).name for a in c.args[1:]]): t
                              for c, t in zip(workload.commands, samples)},
    }
    return metrics, detail


def traced(runner: Runner, workload: workloads.Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    probe = workloads.build_probe(seed, runner.workdir)
    commands = workload.commands + probe.commands
    manifest = []
    results = runner.run_commands(commands)
    for i, (cmd, res) in enumerate(zip(commands, results)):
        saved = runner.workdir / f"cli-{i}.out"
        saved.write_bytes(b"" if res is None else res.out)
        manifest.append({"args": cmd.args, "cli_stdout": str(saved)})
    manifest_path = runner.workdir / "manifest.json"
    manifest_path.write_text(json.dumps({"commands": manifest}), encoding="ascii")

    replays: list[dict[str, float]] = []
    t0 = time.perf_counter()
    while not replays or time.perf_counter() - t0 < seconds:
        res = runner.spawn([sys.executable, str(HERE / "traced.py"), str(manifest_path)])
        runner.attempted += 1
        try:
            doc = json.loads(res.out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            runner.fail(f"traced replay exited {res.code}: {res.err.decode(errors='replace')[-300:]}")
            break
        runner.attempted += doc["compared"]
        for mismatch in doc["mismatches"]:
            runner.fail(f"traced replay differs from the CLI: {mismatch}")
        replays.append(doc["metrics"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {
        m["name"]: (statistics.median(r[m["name"]] for r in replays) if replays else 0.0, m["unit"])
        for m in spec
    }
    detail = {"replays": len(replays), "probe_inputs_sha256": probe.inputs}
    return metrics, detail


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy input sizes (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "orcov" / "__init__.py").is_file():
        print(f"error: no orcov package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # One CPU for this process and every child, so that the reference
    # slices run where the commands run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        runner = Runner(workdir)
        workload = workloads.build(args.workload, args.seed, workdir, tiny=args.tiny)
        prov = provenance(runner, workload, args.seed)
        if args.trace:
            metrics, detail = traced(runner, workload, args.seed, args.seconds)
        else:
            history = f"{args.workload}-{args.seed}-{'tiny-' if args.tiny else ''}{prov['src_sha256'][:16]}"
            metrics, detail = end_to_end(runner, workload, args.seconds, history)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"provenance": prov}))
    print(json.dumps({"detail": detail, "failures": runner.failures[:50]}))
    for reason in runner.failures[:50]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
