"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zero3-resident --seed 1 --seconds 10 --trace 0

Prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Exit status 1 means an output check failed (the JSON is
still printed, with ``"correct": false``); 2 means the program's source
tree was not found beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _print_report(report: dict, self_time_metrics: list[str]) -> None:
    host = report["host"]
    print(
        f"perfbench {report['workload']} seed={report['seed']}"
        f" steps={report['steps']} (+{report['warmup_steps']} warm-up)"
    )
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"setup reps (s): {', '.join(f'{s:.4f}' for s in report['setup_reps'])}")
    for name, (value, unit) in report["metrics"].items():
        note = ""
        if name == "step_ms_tail":
            note = (f"  (p{report['tail_percentile']:.1f} of {report['steps']} steps,"
                    f" {report['beyond_tail']} beyond)")
        print(f"  {name:<22} {value:>14.4f} {unit}{note}")
    layers = report.get("layers")
    if layers:
        step = layers["core.engine.step_ms"]
        rows = sorted(((k, layers[k]) for k in self_time_metrics), key=lambda kv: -kv[1])
        print("self-time reconciliation (ms per step):")
        total = 0.0
        for name, value in rows:
            total += value
            print(f"  {name:<36} {value:>10.3f}  {100 * value / step:5.1f}%")
        residual = layers["core.engine.residual_ms"]
        print(f"  {'residual (core.engine step self)':<36} {residual:>10.3f}"
              f"  {100 * residual / step:5.1f}%")
        print(f"  {'layers + residual':<36} {total + residual:>10.3f}"
              f"  vs core.engine.step_ms {step:.3f}")
        print(f"  spans off the stepping thread: {layers['trace.off_thread_spans']:.0f}")
        print(f"  trace.overhead_ratio {layers['trace.overhead_ratio']:.4f}"
              f" (traced / untraced tokens_per_s)")
    for problem in report["problems"]:
        print(f"OUTPUT CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    settings = harness.Settings(seconds=args.seconds, trace=bool(args.trace))
    report = harness.run(harness.WORKLOADS[args.workload], args.seed, settings, ROOT)
    _print_report(report, harness.self_time_metrics())
    out = os.path.join(ROOT, ".perfbench_run", "out",
                       f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)

    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit, _ in harness.LAYER_METRICS}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
