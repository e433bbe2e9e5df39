"""Benchmark of the fricke batch CLI: one seeded run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
Set-up time is the median over several fresh interpreters of the CPU time
from spawn until ``fricke.cli`` is imported.  The workload then runs in one
more fresh interpreter with numpy's BLAS pinned to one thread (worker.py).
Times are CPU seconds at the reference speed of calibrate.py: each is
scaled by the reference over the probe kernel's time measured around it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it lists the digest of every checked output.  Any failed check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
DEADLINE_S = 170
# the child reports its CPU time from spawn until fricke.cli is imported, then
# the mean of three probe kernel runs on its own CPU right after
READY = ("import time, sys, fricke.cli; cpu = time.process_time(); "
         f"sys.path.insert(0, {str(HERE)!r}); import calibrate; "
         "print(cpu, sum(calibrate.kernel_seconds() for _ in range(3)) / 3, flush=True)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "main_cmd_s": "s",
    "peak_rss_mib": "MiB",
}
LAYER_UNITS = {  # first matching suffix wins
    "_per_s": "1/s",
    "_s": "s",
    "_bits": "bits",
    "_share": "ratio",
    "_pct": "%",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict[str, str], cwd: Path) -> float:
    """Median CPU time from spawn to ``fricke.cli`` imported, at the reference speed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", READY], capture_output=True, cwd=cwd,
                              env=env, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"fricke.cli does not import:\n{proc.stderr}")
        cpu, kernel = (float(x) for x in proc.stdout.split())
        samples.append(cpu * calibrate.REFERENCE_S / kernel)
    return statistics.median(samples)


def run_worker(args, env: dict[str, str], root: Path, workdir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=root, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"the workload did not finish within {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"the worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its level."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def normalized(cpu: list[float], kernel: list[float]) -> float:
    """Seconds at the reference speed: CPU time over the kernel time beside it."""
    return calibrate.REFERENCE_S * sum(cpu) / sum(kernel)


def command_seconds(commands: list[dict], main_only: bool = False) -> list[float]:
    """Each command's mean over the passes, at the reference speed."""
    return [normalized(c["cpu"], c["kernel"]) for c in commands if c["main"] or not main_only]


def executions(commands: list[dict], clock: str, main_only: bool = False) -> list[float]:
    """Every single execution's time: at the reference speed, or raw cpu or wall seconds."""
    return [calibrate.REFERENCE_S * cpu / kernel if clock == "reference" else c[clock][i]
            for c in commands if c["main"] or not main_only
            for i, (cpu, kernel) in enumerate(zip(c["cpu"], c["kernel"]))]


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    commands = result["commands"]
    return {
        "setup_s": setup_s,
        "pass_s": sum(command_seconds(commands)),
        "main_cmd_s": statistics.median(command_seconds(commands, main_only=True)),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(result: dict) -> dict[str, float]:
    layers = dict(result["layers"])
    untraced = sum(command_seconds(result["commands"]))
    traced = sum(command_seconds(result["traced"]))
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
    return layers


def describe(args, result: dict, setup_s: float) -> str:
    """Human-readable detail for standard error: samples, tails, raw times, the gate."""
    commands = result["commands"]
    reps = len(commands[0]["cpu"])
    lines = [f"workload {args.workload} seed {args.seed} size {args.size}: {reps} passes "
             f"of {len(commands)} commands, {result['attempted']} attempted, "
             f"{len(result['failures'])} failed; setup median of {SETUP_SAMPLES} = {setup_s:.4f} s"]
    kernel = [k for c in commands for k in c["kernel"]]
    lines.append(f"calibration kernel: median {1000 * statistics.median(kernel):.2f} ms, "
                 f"reference {1000 * calibrate.REFERENCE_S:.2f} ms")
    for clock in ("reference", "cpu", "wall"):
        values = executions(commands, clock)
        main = executions(commands, clock, main_only=True)
        cut = tail(values)
        tail_text = f", p{cut[1]:.1f} {1000 * cut[0]:.3f} ms" if cut else ""
        lines.append(f"{clock} s: mean pass {sum(values) / reps:.4f}; command latency "
                     f"n={len(values)} p50 {1000 * statistics.median(values):.3f} ms{tail_text}; "
                     f"main command n={len(main)} p50 {statistics.median(main):.4f}")
    if args.workload == "holonomy":
        lines.append(f"holonomy_max_residual {result['max_residual']:.3e} (gate 1e-6)")
    if args.trace:
        lines.append(f"per-layer counts repeat across traced repetitions: "
                     f"{result['counts_repeat']}; spans in {result['spans_file']}")
    lines.extend(result["failures"][:10])
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fixed-locus", "certify", "dynamics", "holonomy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every command at a small size (harness self-test)")
    args = parser.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "fricke" / "cli.py").is_file():
        print("run from the root of a fricke checkout (src/fricke/cli.py not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = setup_seconds(env, root)
        result = run_worker(args, env, root, workdir, DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(result) if args.trace else end_to_end(result, setup_s)
    units = {name: layer_unit(name) for name in metrics} if args.trace else END_TO_END_UNITS
    failed = len(result["failures"])
    print(describe(args, result, setup_s), file=sys.stderr)
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
