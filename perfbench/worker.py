"""One measured run of one workload, in a fresh interpreter started by run.py.

A pass is the workload's fixed list of commands with seeded inputs.  The
run makes passes back to back until the next one would end after
``--seconds`` (always at least one).  Each pass draws fresh inputs from the
seed's stream, so the same seed always gives the same sequence of passes.
Before every pass the package's ``lru_cache``s are emptied, so each starts
as cold as a user's fresh process, and no call hits a cache filled by an
earlier one.

Each command is timed in CPU seconds of this process and in wall seconds,
less the time of calibrate.py's speed probe, which samples the machine's
speed throughout each pass.  Each command is paired with the mean
probe kernel time around it, so run.py can express it at the reference
speed.  The package is single-threaded, so on an idle machine CPU and wall
time agree.

A traced run repeats the seed's first pass, alternately untraced and
traced, so its counts repeat exactly; the difference of the two pass times
is the tracing overhead.  The last line of standard output is one JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import traceback
from collections.abc import Iterator
from pathlib import Path
from time import perf_counter, process_time

import fricke
from fricke import braid, charvariety, cli, connection, exactalg, groebner

import calibrate
import spans as tracing
import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def package_caches() -> list:
    """Every lru_cache-wrapped callable in the package, found before any patching."""
    found = {}
    for module in (fricke, exactalg, groebner, charvariety, braid, connection, cli):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


class Run:
    def __init__(self, args):
        self.args = args
        self.workdir = Path(args.workdir)
        self.caches = package_caches()
        self.stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.max_residual = 0.0

    def passes(self) -> Iterator[list[workloads.Op]]:
        """The seed's passes in order, each with fresh inputs from one stream."""
        build = workloads.WORKLOADS[self.args.workload]
        rng = random.Random(f"fricke-bench/{self.args.seed}")
        while True:
            yield build(rng, self.args.size, self.workdir)

    def execute(self, ops, tracer=None) -> tuple[list[list[float]], calibrate.SpeedProbe]:
        """Run one pass in order; returns [cpu, wall, kernel] seconds per command."""
        for cache in self.caches:
            cache.cache_clear()
        spans = []
        with calibrate.SpeedProbe() as probe:
            for index, op in enumerate(ops):
                self.attempted += 1
                if tracer is not None:
                    tracer.op_id = index
                error = None
                spent = probe.spent
                start_wall, start_cpu = perf_counter(), process_time()
                try:
                    out = op.run()
                except Exception:  # noqa: BLE001 - a raising operation is a counted failure
                    error = f"raised\n{traceback.format_exc(limit=4)}"
                cpu = process_time() - start_cpu - (probe.spent - spent)
                spans.append((cpu, start_wall, perf_counter()))
                if tracer is not None:
                    tracer.op_id = None
                if error is None:
                    error = self.gate(op, out)
                if error is not None:
                    self.failures.append(f"{op.key}: {error}")
        times = [[cpu, end - start - probe.busy_within(start, end), probe.kernel_around(start, end)]
                 for cpu, start, end in spans]
        return times, probe

    def gate(self, op, out) -> str | None:
        try:
            error, payload = op.check(out)
        except Exception:  # noqa: BLE001 - a malformed output is a counted failure
            return f"check raised\n{traceback.format_exc(limit=4)}"
        if isinstance(payload, dict) and "max_residual" in payload:
            self.max_residual = max(self.max_residual, payload["max_residual"])
            return error
        if error is not None or payload is None:
            return error
        digest = workloads.stable_hash(payload)
        seen = self.digests.setdefault(op.key, digest)
        if seen != digest:
            return f"digest {digest} differs from {seen} of an earlier pass"
        stored = self.stored.get(op.key)
        if stored is not None and stored != digest:
            return f"digest {digest} differs from the stored {stored}"
        return None

    def measure(self) -> dict:
        start = perf_counter()
        passes = self.passes()
        first = next(passes) if self.args.trace else None
        reps: list[list[list[float]]] = []
        traced: list[list[list[float]]] = []
        layers: list[dict] = []
        spans: list[list[list]] = []
        while True:
            cycle = perf_counter()
            ops = first or next(passes)
            reps.append(self.execute(ops)[0])
            main = [op.main for op in ops]
            # free this pass's inputs before the next is drawn, so that peak RSS
            # does not depend on how many passes fit in the run
            ops = None
            if self.args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    times, probe = self.execute(first, tracer)
                finally:
                    tracer.uninstall()
                traced.append(times)
                layers.append(tracing.layer_metrics(tracer, probe))
                spans.append(tracer.spans)
            now = perf_counter()
            if now - start + (now - cycle) > self.args.seconds:
                break
        result = {
            "commands": [{"main": is_main,
                          "cpu": [rep[i][0] for rep in reps], "wall": [rep[i][1] for rep in reps],
                          "kernel": [rep[i][2] for rep in reps]}
                         for i, is_main in enumerate(main)],
        }
        if self.args.trace:
            result["traced"] = [{"main": is_main, "cpu": [rep[i][0] for rep in traced],
                                 "kernel": [rep[i][2] for rep in traced]}
                                for i, is_main in enumerate(main)]
            result["layers"] = {name: statistics.median(layer[name] for layer in layers)
                                for name in layers[0]}
            counts = [{k: v for k, v in layer.items() if k in tracing.COUNTS} for layer in layers]
            result["counts_repeat"] = all(c == counts[0] for c in counts)
            spans_path = self.workdir.parent / f"trace-{self.args.workload}-{self.args.seed}.json"
            tracing.dump_spans(spans, spans_path)
            result["spans_file"] = str(spans_path)
        return result

    def record(self) -> None:
        """Store the digests of the outputs of this seed's first pass in digests.json."""
        self.execute(next(self.passes()))
        if self.failures:
            raise SystemExit("refusing to record digests of failing outputs:\n"
                             + "\n".join(self.failures))
        merged = dict(self.stored)
        merged.update(self.digests)
        DIGESTS.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", action="store_true",
                        help="store the digests of this seed's first pass in digests.json")
    args = parser.parse_args()

    run = Run(args)
    run.workdir.mkdir(parents=True, exist_ok=True)
    if args.record:
        run.record()
        return 0
    result = run.measure()
    result.update(
        attempted=run.attempted,
        failures=run.failures,
        digests=run.digests,
        max_residual=run.max_residual,
        # Linux reports ru_maxrss in KiB
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
