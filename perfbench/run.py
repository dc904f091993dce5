"""crkernel benchmark: time to verdict for the two-route verifier.

    python3 perfbench/run.py --workload routes|quadrature --seed N --seconds S --trace 0|1

Closed loop, one client: iterations run one after another, each in a fresh
interpreter (``perfbench/iteration.py``), so no memo survives from one
iteration to the next.  Iterations repeat while the next one is expected to
end by ``--seconds`` plus half an iteration (at least one; with
``--trace 1`` at least one untraced and one traced, alternating).  Extra
set-up-only launches bring the set-up samples to ``SETUP_SAMPLES``.  The
benchmark starts no threads of its own and pins no
thread counts.

Every iteration must pass all of its checks and print the same
timings-off report digest.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and the per-iteration samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import MUL_SHAPES, PER_LAYER  # noqa: E402

#: set-up samples per run; set-up-only launches make up the difference
SETUP_SAMPLES = 9

#: no iteration starts, and none may run on, past this many seconds into a run
HARD_LIMIT_S = 170.0

#: where traced iterations write their spans, relative to the checkout root
SPANS_DIR = Path(".bench_build") / "perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("cpu_s", "s"),
    ("scenario_p50_s", "s"),
    ("scenario_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = head[5:]
        value = _read(str(ROOT / ".git" / ref))
        if value is None:
            for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return value
    return head


def _cpu_max() -> str:
    value = _read("/sys/fs/cgroup/cpu.max")
    if value is not None:
        return value
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is not None and period is not None:
        return f"{'max' if quota == '-1' else quota} {period} (cgroup v1 cfs quota/period)"
    return "unreadable"


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, doc: dict, child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cpu_max(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": child.get("numpy", "unknown"),
        "blas": child.get("blas", {"name": "unknown", "version": "unknown"}),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "oracle": doc.get("oracle") or "none (workload runs no quadrature)",
    }


def launch(workload, seed, config, checks, traced=False, setup_only=False, spans=None, timeout=HARD_LIMIT_S):
    """Run one fresh-interpreter iteration; a crash or timeout fails all its checks."""
    cmd = [sys.executable, str(HERE / "iteration.py")]
    cmd += ["--config", str(config)] if config else ["--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration timed out after {timeout:.0f} s", "failed": checks}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"iteration exited with code {proc.returncode}: {tail[0]}", "failed": checks}
    out = json.loads(lines[-1])
    out["traced"] = traced
    if out.get("error"):
        sys.stderr.write(proc.stderr)
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    """90th percentile (inclusive method); the highest tenth of at least two samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(plain: list, setups: list) -> tuple:
    """The six end-to-end metrics from untraced iterations, and their sample counts."""
    scen = [s for it in plain for s in it.get("scenario_s", [])]
    p90 = _p90(scen)
    values = {
        "setup_s": _median(setups),
        "verdict_s": _median([it["verdict_s"] for it in plain if "verdict_s" in it]),
        "cpu_s": _median([it["cpu_s"] for it in plain if "cpu_s" in it]),
        "scenario_p50_s": _median(scen),
        "scenario_p90_s": p90,
        "peak_rss_mb": _median([it["peak_rss_mb"] for it in plain if "peak_rss_mb" in it]),
    }
    samples = {
        "iterations": len(plain),
        "setup_samples": len(setups),
        "scenario_samples": len(scen),
        "scenario_samples_above_p90": sum(1 for s in scen if s > p90),
    }
    return values, samples


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer metrics from traced iterations; times are medians over them."""

    def med(fn):
        return _median([fn(it["trace"]) for it in traced])

    t = traced[0]["trace"]
    gc = t["group_calls"]
    values = {
        "jets.mul_calls": gc.get("jets.mul", 0),
        "jets.mul_terms": t["mul_terms"],
        "jets.mul_self_s": med(lambda x: x["group_self_s"].get("jets.mul", 0.0)),
        "jets.mul_density": t["mul_density"],
    }
    for v, o in MUL_SHAPES:
        name = f"jets.mul.v{v}o{o}"
        values[f"jets.mul_self_s.v{v}o{o}"] = med(lambda x, name=name: x["self_s"].get(name, 0.0))
    for group in (
        "jets.compose", "jets.series", "jets.partial", "charts.build", "symbols.transform",
        "stationary.phase_data", "stationary.apply_L", "stationary.oracle",
        "pipeline.qe_amplitude", "pipeline.compose_sp",
    ):
        values[f"{group}_calls"] = gc.get(group, 0)
    for group in (
        "jets.compose", "jets.series", "jets.partial", "charts.build", "charts.geometry",
        "symbols.construct", "symbols.transform", "symbols.subprincipal", "symbols.p_operator",
        "stationary.phase_data", "stationary.apply_L", "stationary.moment", "stationary.oracle",
        "pipeline.qe_amplitude", "pipeline.compose_sp", "pipeline.closed_form",
    ):
        values[f"{group}_self_s"] = med(lambda x, group=group: x["group_self_s"].get(group, 0.0))
    moment_calls = gc.get("stationary.moment", 0)
    values["stationary.moment_calls"] = moment_calls
    values["stationary.moment_sweeps"] = t["moment_sweeps"]
    values["stationary.moment_memo_hit_ratio"] = _ratio(moment_calls - t["moment_sweeps"], moment_calls)
    values["stationary.grid_nodes"] = t["grid_nodes"]
    values["pipeline.b1_pipeline_calls"] = gc.get("pipeline.b1_pipeline", 0)
    values["pipeline.b1_pipeline_reuse_ratio"] = _ratio(t["pipeline_scenarios"], gc.get("pipeline.b1_pipeline", 0))
    values["harness.checks"] = gc.get("harness.check", 0)
    values["harness.checks_failed"] = traced[0].get("failed", 0)
    values["harness.check_errors"] = t["errors"].get("harness.check", 0)
    values["harness.worst_margin"] = traced[0].get("worst_margin") or 0.0
    values["harness.parse_s"] = _median([it["parse_s"] for it in traced])
    values["harness.emit_s"] = med(lambda x: x["group_self_s"].get("harness.emit", 0.0))
    traced_verdict = _median([it["verdict_s"] for it in traced])
    values["trace.verdict_s"] = traced_verdict
    values["trace.overhead_s"] = traced_verdict - _median([it["verdict_s"] for it in plain])
    return values


def _counters(trace: dict) -> dict:
    """The deterministic part of a traced iteration's summary."""
    return {
        "calls": trace["calls"],
        "errors": trace["errors"],
        "mul_terms": trace["mul_terms"],
        "mul_density": trace["mul_density"],
        "moment_sweeps": trace["moment_sweeps"],
        "grid_nodes": trace["grid_nodes"],
    }


def run_workload(workload, seed, seconds, trace=False, config=None):
    """Run one benchmark run and return its result document (see the module docstring)."""
    if config:
        with open(config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = workloads.WORKLOADS[workload](seed)
    checks = sum(len(s["checks"]) for s in doc["scenarios"])
    spans = None
    if trace:
        (ROOT / SPANS_DIR).mkdir(parents=True, exist_ok=True)
        spans = ROOT / SPANS_DIR / f"spans-{workload or 'config'}-{seed}.json"

    start = time.monotonic()
    runs = []
    while True:
        traced = trace and len(runs) % 2 == 1
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        runs.append(launch(workload, seed, config, checks, traced=traced, spans=spans, timeout=max(remaining, 1.0)))
        elapsed = time.monotonic() - start
        per_run = elapsed / len(runs)
        if elapsed + per_run / 2 > seconds and (not trace or len(runs) >= 2):
            break
        if elapsed + per_run > HARD_LIMIT_S:
            break
    setups = [it["setup_s"] for it in runs if "setup_s" in it]
    while len(setups) < SETUP_SAMPLES and time.monotonic() - start < HARD_LIMIT_S - 10:
        it = launch(workload, seed, config, checks, setup_only=True, timeout=10)
        if "setup_s" not in it:
            break
        setups.append(it["setup_s"])

    reference = runs[0].get("digest")
    failed = sum(it["failed"] if it.get("digest") == reference else checks for it in runs)
    traced_runs = [it for it in runs if it.get("traced") and "trace" in it]
    plain_runs = [it for it in runs if not it.get("traced") and "verdict_s" in it]
    counters_repeat = len({json.dumps(_counters(it["trace"]), sort_keys=True) for it in traced_runs}) <= 1
    correct = (
        failed == 0
        and reference is not None
        and all(it.get("error") is None for it in runs)
        and counters_repeat
        and (not trace or bool(traced_runs))
    )
    e2e, samples = end_to_end(plain_runs, setups)
    if trace and traced_runs and plain_runs:
        metrics = per_layer(plain_runs, traced_runs)
        units = dict(PER_LAYER)
    else:
        metrics, units = e2e, dict(END_TO_END)
    return {
        "environment": environment(workload or "config", seed, doc, next((it for it in runs if "numpy" in it), {})),
        "samples": {
            **samples,
            "traced_iterations": len(traced_runs),
            "digest": reference,
            "worst_margin": max((it.get("worst_margin") or 0.0 for it in runs), default=0.0),
            "counters_repeat": counters_repeat,
            "errors": [it["error"] for it in runs if it.get("error")],
            "verdict_s": [it.get("verdict_s") for it in runs],
            "setup_s": setups,
        },
        "result": {
            "correct": correct,
            "attempted": checks * len(runs),
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crkernel" / "__init__.py").is_file():
        print(f"crkernel sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    print(json.dumps({"environment": out["environment"]}))
    print(json.dumps({"samples": out["samples"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
