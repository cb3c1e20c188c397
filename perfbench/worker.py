"""One repetition of a workload, in a fresh single-threaded process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED_AT [SPANS_FILE]

MODE is ``plain`` (no tracing), ``traced`` (layer spans recorded) or
``oracle`` (criterion 1 at its acceptance seed and full scale).
SPAWNED_AT is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start and every import.  Prints one JSON
object as its last line.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _to_json(value):
    if hasattr(value, "tolist"):  # numpy scalar or array
        return value.tolist()
    return repr(value)


def digest(details: dict) -> str:
    """sha256 of a criterion's details, floats at full precision."""
    text = json.dumps(details, sort_keys=True, default=_to_json)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_criteria(criteria, indices, seed, scale, recorder=None):
    out = []
    for i in indices:
        entry = {"index": i}
        try:
            if recorder is None:
                res = criteria[i](seed, scale)
            else:
                with recorder.span(f"acceptance.c{i}"):
                    res = criteria[i](seed, scale)
        except Exception:  # a criterion that raises is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            entry.update(passed=False, error=traceback.format_exc(limit=1).strip(),
                         seconds=math.nan, digest=None, line=f"[ERROR] criterion {i}")
        else:
            entry.update(passed=bool(res.passed), error=None, seconds=res.seconds,
                         digest=digest(res.details), line=res.line(),
                         details=json.loads(json.dumps(res.details, default=_to_json)))
        out.append(entry)
    return out


def main(argv) -> int:
    workload_name, seed, mode, spawned_at = argv[1], int(argv[2]), argv[3], float(argv[4])
    spans_file = argv[5] if len(argv) > 5 else None
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import roughflow
    from roughflow import acceptance

    if Path(roughflow.__file__).resolve().parent != src / "roughflow":
        print(f"roughflow imported from {roughflow.__file__}, not {src}", file=sys.stderr)
        return 2
    setup_s = time.monotonic() - spawned_at

    from workloads import ORACLE_SCALE, WORKLOADS

    if mode == "oracle":
        indices, seed, scale = (1,), acceptance.DEFAULT_SEED, ORACLE_SCALE
    else:
        w = WORKLOADS[workload_name]
        indices, scale = w.criteria, w.budget_scale

    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.Recorder()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if recorder is None:
        results = run_criteria(acceptance.CRITERIA, indices, seed, scale)
    else:
        with spans.installed(recorder):
            results = run_criteria(acceptance.CRITERIA, indices, seed, scale, recorder)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    record = {
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "criteria": results,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "roughflow": roughflow.__version__},
    }
    if recorder is not None:
        record["layers"] = recorder.metrics()
        record["missing_probes"] = recorder.missing
        if spans_file:
            Path(spans_file).parent.mkdir(parents=True, exist_ok=True)
            Path(spans_file).write_text(json.dumps(recorder.dump()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
