"""channelrank benchmark: one command, three workloads, a seed argument.

    python3 perfbench/run.py --workload ablate_q200 --seed 0 --seconds 10 --trace 0

Prints the hardware note, each metric by name and unit, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``. ``--size tiny`` shrinks every
workload for the smoke tests. ``--write-manifest`` regenerates
BENCHMARK.json from spec.py. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import time

import spec
from common import ROOT, SRC, BenchError

RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded.json")
DEADLINE_S = 170


def load_recorded(key: str) -> dict | None:
    with open(RECORDED, encoding="utf-8") as fh:
        return json.load(fh).get(key)


def _import_program() -> None:
    """Import channelrank from this checkout's ``src``, never from elsewhere."""
    package = os.path.join(SRC, "channelrank", "__init__.py")
    if not os.path.isfile(package):
        raise BenchError(f"no channelrank sources under {SRC}")
    sys.path.insert(0, SRC)
    import channelrank

    if os.path.realpath(channelrank.__file__) != os.path.realpath(package):
        raise BenchError(f"imported channelrank from {channelrank.__file__}, not {package}")


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def _on_terminate(signum, frame):
    raise BenchError("terminated")  # unwinds, so child processes are stopped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        print(f"wrote {spec.write_manifest(ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.alarm(DEADLINE_S)
    try:
        t0 = time.perf_counter()
        _import_program()
        import_s = time.perf_counter() - t0
        from channelrank.service import hardware_note

        import ablate
        import scoring

        runners = {
            "ablate_q200": ablate.run,
            "score_pool100": functools.partial(scoring.run, "pool100"),
            "score_oblique": functools.partial(scoring.run, "oblique"),
        }
        print(f"hardware: {hardware_note()}, nproc {len(os.sched_getaffinity(0))}")
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace} size {args.size}")
        recorded = load_recorded(f"{args.workload}/{args.size}/{args.seed}")
        out = runners[args.workload](
            args.seed, args.seconds, bool(args.trace), args.size, recorded, import_s
        )
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    for line in out.notes:
        print(line)
    for what in out.gate_failures:
        print(f"FAILED: {what}")
    for what in sorted(set(out.op_failures)):
        print(f"failed {out.op_failures.count(what)}x: {what}")
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"attempted={out.attempted} failed={out.failed} failed_frac={failed_frac!r}")

    if args.trace:
        metrics = {m["name"]: 0.0 for m in spec.PER_LAYER}
        metrics.update(out.per_layer)
        metrics["failed_frac"] = failed_frac
        expected = {m["name"] for m in spec.PER_LAYER}
    else:
        metrics = dict(out.end_to_end)
        expected = {m["name"] for m in spec.END_TO_END}
    if set(metrics) != expected:
        print(f"error: metrics {sorted(set(metrics) ^ expected)} do not match spec.py",
              file=sys.stderr)
        return 1
    metrics = {name: float(value) for name, value in metrics.items()}
    for name, value in metrics.items():
        print(f"{name} {value!r} {spec.UNITS[name]}")
    print(json.dumps({
        "correct": not out.gate_failures,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
