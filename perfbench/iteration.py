"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/iteration.py --workload NAME --seed N --t0 T [--trace] [--setup-only]
    python3 perfbench/iteration.py --config PATH --t0 T [--trace]

Generates the workload's config from the seed (or reads a config document),
then runs the same library path as ``verify``: ``parse_config`` ->
``run_scenarios`` -> ``emit_report``.  ``--t0`` is the parent's
``time.monotonic()`` just before it launched this process, so the set-up
time covers interpreter launch, imports, config generation and parsing.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _timings_off_digest(emit_report, reports) -> str:
    """sha256 of the report ``verify --no-timings`` would print for these records."""
    zeroed = [
        replace(rep, records=tuple(replace(r, wall_time_s=0.0) for r in rep.records))
        for rep in reports
    ]
    return hashlib.sha256(emit_report(zeroed)).hexdigest()


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from crkernel.harness import emit_report, parse_config, run_scenarios
    import workloads

    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = workloads.WORKLOADS[args.workload](args.seed)
    p0 = time.perf_counter()
    config = parse_config(doc)
    parse_s = time.perf_counter() - p0
    setup_s = time.monotonic() - args.t0
    checks = sum(len(s.checks) for s in config["scenarios"])
    out = {"setup_s": setup_s, "checks": checks, "numpy": np.__version__, "blas": _blas_info()}
    if args.setup_only:
        return out

    untraced_emit = emit_report
    tracer = None
    if args.trace:
        from tracer import PIPELINE_CHECKS, Tracer

        tracer = Tracer()
        tracer.install()
        import crkernel.harness as harness  # the wrapped names now live here

        run_scenarios, emit_report = harness.run_scenarios, harness.emit_report

    error = None
    reports = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        reports = run_scenarios(config)
        emit_report(reports)
    except Exception as exc:  # a raising check aborts the whole run; record it and go on
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    verdict_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    out.update(
        verdict_s=verdict_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        parse_s=parse_s,
        error=error,
    )
    if error is not None:
        # no report reached the user, so none of this run's checks was delivered
        out.update(failed=checks, worst_margin=None, digest=None, scenario_s=[])
    else:
        records = [r for rep in reports for r in rep.records]
        out.update(
            failed=sum(not r.passed for r in records) + checks - len(records),
            worst_margin=max((r.abs_deviation / r.tolerance for r in records), default=0.0),
            digest=_timings_off_digest(untraced_emit, reports),
            scenario_s=[sum(r.wall_time_s for r in rep.records) for rep in reports],
        )
    if tracer is not None:
        summary = tracer.summary()
        summary["pipeline_scenarios"] = sum(
            1 for s in config["scenarios"] if any(c in s.checks for c in PIPELINE_CHECKS)
        )
        out["trace"] = summary
        if args.spans:
            tracer.write_spans(args.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="run this config document instead of a generated workload")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="with --trace, write the spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
