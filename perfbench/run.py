"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  The line before it is the machine block.  A readable
table goes to standard error, and the full report (machine block, op
errors, span self times) to ``.perfbench/`` in the checkout, next to the
trace of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NoReturn

from common import SRC, WORK, machine


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check that every workload's inputs repeat per seed and differ across seeds",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))

    import inputs

    if args.self_test:
        problems = [p for w in spec.WORKLOAD_NAMES for p in inputs.self_test(w, args.seed)]
        for problem in problems:
            print(problem, file=sys.stderr)
        print("self-test", "failed" if problems else "passed")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from tracing import SpanRecorder

    made = inputs.inputs_for(args.workload, args.seed)
    seeding = inputs.self_test(args.workload, args.seed, made)
    tracer = SpanRecorder() if args.trace else None
    if args.workload == "tune":
        import wl_tune

        if tracer is None:
            out = wl_tune.run(made, args.seconds)
        else:
            out = wl_tune.run_traced(made, args.seconds, tracer)
    else:
        import wl_serve

        if tracer is None:
            out = wl_serve.run(args.workload, made, args.seconds)
        else:
            out = wl_serve.run_traced(args.workload, made, args.seconds, tracer)

    ops = out["ops"]
    metrics = dict(out["metrics"])
    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    if tracer is not None:
        metrics["trace.spans"] = float(len(tracer))
        # A layer off this workload's path did no work in it.
        for name in declared:
            metrics.setdefault(name, 0.0)
    missing = set(declared) - set(metrics)
    extra = set(metrics) - set(declared)
    if missing or extra:
        _fail(f"metrics out of step with spec: missing {missing}, extra {extra}")
    unmeasured = [name for name, value in metrics.items() if not math.isfinite(value)]
    if unmeasured:
        _fail(f"no value measured for {unmeasured}; op errors: {dict(ops.errors)}")

    facts = machine()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "seeding_problems": seeding,
        "op_errors": dict(ops.errors),
        "notes": out.get("notes", []),
        "metrics": metrics,
    }
    if tracer is not None:
        report["self_times"] = tracer.self_times()
        report["trace_file"] = str(tracer.write(WORK / f"trace-{tag}.npz").name)
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=2))

    for problem in seeding:
        print(f"seeding: {problem}", file=sys.stderr)
    for reason, count in sorted(ops.errors.items()):
        print(f"failed op x{count}: {reason}", file=sys.stderr)
    for note in report["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for name in declared:
        print(f"{name:28s} {metrics[name]:16.6g} {declared[name]}", file=sys.stderr)
    if tracer is not None:
        print(f"{'span self time':28s} {'count':>10s} {'self s':>12s}", file=sys.stderr)
        for name, row in sorted(report["self_times"].items()):
            print(f"{name:28s} {row['count']:10d} {row['self_s']:12.6f}", file=sys.stderr)

    print(json.dumps({"machine": facts}))
    print(
        json.dumps(
            {
                "correct": not seeding and ops.wrong == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
