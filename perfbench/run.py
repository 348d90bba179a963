#!/usr/bin/env python3
"""perfbench: the rollout-scale end-to-end benchmark of the EIL system.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 15 \\
        --trace 0

Runs one workload (``search_cold`` or ``serve_churn``, see
``workloads.py``) in this process against the program under ``src/``,
driving it only through ``EILSystem`` and ``EILServer``.  Every
``REPRO_*`` environment variable is cleared first, so the program runs
at its own defaults.

Standard output is a readable report — every metric with its unit and
sample count, the workload record (corpus shape, read/write shares,
repeat share, offered rate, generator lateness, Python version, CPU
count) and any failed check — followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
the program's own instrumentation off; with ``--trace 1`` they are the
per-layer ones from a separate traced run (``layers.py``), whose spans
are written to ``.bench_build/perfbench/``.  ``correct`` is false when
any operation failed: shed, past its deadline, raised, or gave a wrong
answer.

The harness's own tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search_cold", "serve_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def finite(value: float) -> float:
    """JSON has no infinity; a failed percentile reports the float max."""
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import workloads

    run = workloads.execute(args.workload, ROOT, args.seed, args.seconds,
                            bool(args.trace))
    if args.trace:
        units = layers.per_layer_units()
    else:
        units = {name: unit for name, (unit, _) in workloads.E2E.items()}
    missing = sorted(set(units) - set(run.metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3

    attempted, failed = run.ledger.attempted, run.ledger.failed
    extra_units = dict(workloads.EXTRA, failed_ratio="ratio")
    report = {
        "metrics": {
            name: {"value": run.metrics[name], "unit": units[name],
                   "samples": run.samples.get(name)}
            for name in units
        },
        "workload_metrics": {
            name: {"value": value, "unit": extra_units[name],
                   "samples": samples}
            for name, (value, samples) in run.extra.items()
        },
        "record": run.record,
        "errors": run.ledger.errors,
    }
    out = run.work_dir / (f"report-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out.write_text(json.dumps(report, indent=2, default=str) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for section in ("metrics", "workload_metrics"):
        for name, entry in report[section].items():
            print(f"  {name:34s} {entry['value']:14.4f} "
                  f"{entry['unit']:6s} n={entry['samples']}")
    for key, value in run.record.items():
        print(f"  record.{key} = {value}")
    for error in run.ledger.errors:
        print(f"  FAILED {error}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": finite(float(run.metrics[name])),
                   "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
