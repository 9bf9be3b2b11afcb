"""Run one benchmark workload, or all of them, against the checkout's ``src``.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.  With
``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric instead.  A traced run does a fixed amount of work,
the workload's floor (its minimum days, chunks or requests), whatever
``--seconds`` says, so its per-layer figures compare across commits.  It
first does the same work untraced in a child interpreter and reports the
difference between the two as ``bench.trace_overhead_pct``.  The line
before the result is a JSON report of the workload's measured properties.
``--all`` runs each workload in its own interpreter and prints every
metric by name with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def _metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(_metric_specs()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few seconds of input, for tests")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    return args


def _child(args, workload: str, trace: int,
           seconds: float) -> tuple[dict, dict]:
    """Run one workload in a fresh interpreter; its (report, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _run_all(args) -> int:
    specs = _metric_specs()
    units = {m["name"]: m["unit"] for m in specs["end_to_end"]}
    units.update(query_p99_ms="ms", freshness_p90_ms="ms",
                 error_rate="ratio")
    ok = True
    print(f"{'workload':<16}{'metric':<22}{'value':>14}  unit")
    for workload in (w["name"] for w in specs["workloads"]):
        report, result = _child(args, workload, 0, args.seconds)
        ok = ok and result["correct"]
        values = {**report["end_to_end"], **report["extra"]}
        for name, unit in units.items():
            print(f"{workload:<16}{name:<22}{values[name]:>14.4f}  {unit}")
        print(f"{workload:<16}{'correct':<22}{str(result['correct']):>14}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return _run_all(args)

    import layers
    import workloads

    specs = _metric_specs()
    if args.workload not in {w["name"] for w in specs["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    # A traced run measures exactly the floors (seconds=0), and so does
    # the untraced run its overhead is taken against.
    seconds = 0.0 if args.trace else args.seconds
    reference = (_child(args, args.workload, 0, seconds)[1] if args.trace
                 else None)
    hooks = layers.TraceHooks() if args.trace else workloads.Hooks()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        outcome = workloads.run(args.workload, args.seed, seconds,
                                workloads.SIZES[args.size], str(workdir),
                                hooks)
    finally:
        hooks.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = hooks.layers
        values["bench.trace_overhead_pct"] = layers.overhead_pct(
            args.workload, reference["metrics"], outcome.end_to_end())
        wanted = specs["per_layer"]
    else:
        values = outcome.end_to_end()
        wanted = specs["end_to_end"]
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "properties": outcome.properties,
              "end_to_end": outcome.end_to_end(), "extra": outcome.extra(),
              "mismatches": outcome.mismatches[:20]}
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    correct = not outcome.mismatches
    for what in outcome.mismatches[:20]:
        print(f"perfbench: mismatch: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
