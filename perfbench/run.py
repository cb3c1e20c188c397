"""Acceptance-suite benchmark for roughflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's acceptance criteria (``roughflow.acceptance.CRITERIA``)
from the source tree next to this directory, one repetition at a time, each
in a fresh worker process with the BLAS/OpenMP pools pinned to one thread,
until ``--seconds`` have passed.  ``--trace 0`` reports the end-to-end
metrics as medians over the repetitions; ``--trace 1`` alternates plain and
traced repetitions and reports the per-layer metrics.  Every criterion line,
the per-criterion details digests and the host description are printed; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import REPORTED_ONLY, THREAD_ENV, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0   # a run must end within 180 s
ORACLE_RESERVE_S = 5.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, env: dict, deadline: float,
          spans_file: Path | None = None) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a repetition could start")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    cmd.append(repr(time.monotonic()))
    if spans_file is not None:
        cmd.append(str(spans_file))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": dict(THREAD_ENV),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_reps(args, env) -> tuple:
    """Plain (and, when tracing, alternating traced) repetitions, then the probe."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    reps, oracle = [], None
    last = 0.0
    while True:
        modes = {r["mode"] for r in reps}
        elapsed = time.monotonic() - start
        wanted = elapsed < args.seconds or "plain" not in modes or (
            args.trace and "traced" not in modes)
        if not wanted:
            break
        if reps and elapsed + 1.5 * last > TIME_LIMIT_S - ORACLE_RESERVE_S:
            if args.trace and "traced" not in modes:
                raise BenchError("no time left for a traced repetition")
            break
        mode = "traced" if args.trace and len(reps) % 2 == 1 else "plain"
        spans_file = None
        if mode == "traced":
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}-rep{len(reps)}.json"
        t0 = time.monotonic()
        reps.append(spawn(args.workload, args.seed, mode, env, deadline, spans_file))
        last = time.monotonic() - t0
    if not args.trace:
        oracle = spawn(args.workload, args.seed, "oracle", env, deadline)
    return reps, oracle


def summarize(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def end_to_end(plain, oracle) -> dict:
    c1 = oracle["criteria"][0]
    if c1["error"] is not None:
        raise BenchError("oracle probe (criterion 1) raised")
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain + [oracle]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "oracle_median_err": [c1["details"]["median_err"]],
        "oracle_halving_ratio": [c1["details"]["median_ratio"]],
    }


def per_layer(plain, traced, red_share) -> tuple:
    """Per-layer samples and whether every work counter repeated exactly."""
    samples = {}
    for r in traced:
        for name, value in r["layers"].items():
            samples.setdefault(name, []).append(value)
    counts_repeat = all(
        len(set(v)) == 1 for n, v in samples.items() if not n.endswith("_s")
        and not n.startswith(("flow.us_", "density.us_"))
    )
    for i in range(1, 11):
        samples[f"acceptance.c{i}_s"] = [
            c["seconds"] for r in plain for c in r["criteria"] if c["index"] == i
        ] or [0.0]
    samples["acceptance.failed_share"] = [red_share]
    samples["trace.overhead_s"] = [
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain)
    ]
    return samples, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roughflow" / "__init__.py").is_file():
        print(f"no roughflow source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    host = host_info()
    env = dict(os.environ, **THREAD_ENV)
    try:
        reps, oracle = run_reps(args, env)
        plain = [r for r in reps if r["mode"] == "plain"]
        traced = [r for r in reps if r["mode"] == "traced"]
        runs = [c for r in reps for c in r["criteria"]]
        red = [c for c in runs if not c["passed"]]
        red_share = len(red) / len(runs)
        if args.trace:
            samples, counts_repeat = per_layer(plain, traced, red_share)
        else:
            samples, counts_repeat = end_to_end(plain, oracle), True
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = [c for c in red if c["error"] is not None or c["index"] not in REPORTED_ONLY]
    digests = {}
    for c in runs:
        digests.setdefault(c["index"], set()).add(c["digest"])
    deterministic = all(len(d) == 1 and None not in d for d in digests.values())
    if set(samples) != set(declared):
        print("metrics differ from BENCHMARK.json: "
              f"{sorted(set(samples) ^ set(declared))}", file=sys.stderr)
        return 1
    metrics = {name: summarize(v) for name, v in samples.items()}
    finite = all(math.isfinite(s["median"]) for s in metrics.values())
    correct = not failed and deterministic and counts_repeat and finite

    versions = reps[0]["versions"]
    print(f"# workload {args.workload}: criteria {list(workload.criteria)} at "
          f"budget_scale {workload.budget_scale}, seed {args.seed}, trace {args.trace}")
    print(f"# host: python {versions['python']} numpy {versions['numpy']} scipy "
          f"{versions['scipy']} roughflow {versions['roughflow']}; nproc {host['nproc']} "
          f"(affinity {host['affinity_cpus']}); loadavg at start "
          f"{' '.join(f'{x:.2f}' for x in host['loadavg_at_start'])}; "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    print(f"# repetitions: {len(plain)} plain, {len(traced)} traced"
          + ("" if args.trace else ", 1 oracle probe") + "; one fresh process each")
    for c in reps[0]["criteria"]:
        print(c["line"] if c["error"] is None else f"{c['line']}: {c['error']}")
    if oracle is not None:
        print(f"oracle probe: {oracle['criteria'][0]['line']}")
    for index, d in sorted(digests.items()):
        state = "identical" if len(d) == 1 else "DIFFERENT"
        print(f"# digest c{index}: {', '.join(sorted(map(str, d)))} ({state} across "
              f"{len(reps)} repetitions)")
    notes = ", ".join(f"c{i} {REPORTED_ONLY[i]}"
                      for i in sorted({c["index"] for c in red} & REPORTED_ONLY.keys()))
    print(f"failed_share = {red_share:.4f} share ({len(red)} red of {len(runs)} "
          f"criterion runs{'; reported only: ' + notes if notes else ''})")
    if not correct:
        print(f"# not correct: failed {[c['index'] for c in failed]}, deterministic "
              f"{deterministic}, counters repeat {counts_repeat}, finite {finite}")
    if traced and traced[0]["missing_probes"]:
        print(f"# probes not found: {', '.join(traced[0]['missing_probes'])}")
    for name, s in metrics.items():
        unit = declared[name]["unit"]
        spread = f" (median of {s['n']}; min {s['min']:.6g}, max {s['max']:.6g})" if s["n"] > 1 else ""
        print(f"{name} = {s['median']:.10g} {unit}{spread}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "criteria": list(workload.criteria), "budget_scale": workload.budget_scale,
        "host": host, "versions": versions, "correct": correct,
        "digests": {f"c{i}": sorted(map(str, d)) for i, d in digests.items()},
        "metrics": metrics, "repetitions": reps, "oracle": oracle,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": s["median"], "unit": declared[name]["unit"]}
                    for name, s in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
