"""One run of one workload in a fresh process; started by run.py.

    python3 perfbench/worker.py OUT_JSON ROOT WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up (import, input generation, one untimed warm-up op) is timed from the
top of this file.  The timed loop then runs a fixed number of whole cycles
(see workloads.cycles_for), one op at a time.  Checks run after the loop.
With TRACE=1, even-numbered cycles are traced and odd ones are not, so the
tracing overhead is measured in the same run; per-layer totals come from the
traced cycles only.
"""

from time import perf_counter

T_START = perf_counter()

import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

LOOP_CAP_S = 120.0  # stop a loop that runs far past its nominal length


def main() -> None:
    out, root, name, seed, seconds, trace = sys.argv[1:7]
    setup_only = "--setup-only" in sys.argv[7:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    root = Path(root)
    sys.path.insert(0, str(root / "src"))

    import numpy
    import scipy

    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    in_process = not wl.ops_in_child_processes
    tag = "setup" if setup_only else f"trace{int(trace)}"
    out_dir = root / ".bench_out" / f"{name}-seed{seed}-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tr = None
    if trace and in_process:
        tr = tracing.Tracer()
        tr.install()
    ops = wl.make_ops(seed, workloads.cycles_for(wl, seconds), out_dir)
    wl.run(wl.warmup_op(seed, out_dir))
    setup_s = perf_counter() - T_START
    if setup_only:
        _dump(out, {"setup_s": setup_s})
        return

    n_kinds = len(wl.kinds)
    times, results, errors, traced = [], [], [], []
    counters = tr.counters if tr is not None else dict.fromkeys(tracing.COUNTERS, 0)
    loop_start = perf_counter()
    for op in ops:
        is_traced = trace and (op.index // n_kinds) % 2 == 0
        spans_path = out_dir / f"op{op.index:04d}.spans.json" if is_traced else None
        if tr is not None and is_traced:
            tr.begin_op(op.index)
        t0 = perf_counter()
        try:
            res, err = wl.run(op, None if in_process else spans_path), None
        except Exception as exc:  # the op's failure is a measured outcome
            res, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if tr is not None and is_traced:
            tr.end_op()
        if is_traced and err is None:
            for key, value in wl.trace_counts(res).items():
                counters[key] += value
        times.append(elapsed)
        results.append(res)
        errors.append(err)
        traced.append(is_traced)
        if perf_counter() - loop_start > LOOP_CAP_S:
            break
    loop_s = perf_counter() - loop_start
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    done = ops[:len(times)]
    checked = iter(wl.check([op for op, e in zip(done, errors) if e is None],
                            [r for r, e in zip(results, errors) if e is None]))
    statuses = [("failed", e) if e is not None else next(checked) for e in errors]

    record = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb,
        "op_times": times,
        "statuses": [s for s, _ in statuses],
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(),
            "seed": seed,
            "seconds": seconds,
            "workload": name,
        },
        "ops": [{"index": op.index, "kind": op.kind, **op.params, "seconds": t,
                 "traced": tflag, "status": st, "detail": detail}
                for op, t, tflag, (st, detail) in zip(done, times, traced, statuses)],
    }
    if trace:
        spans = tr.spans if tr is not None else _merge_child_spans(out_dir, counters)
        t_on = [t for t, f in zip(times, traced) if f]
        t_off = [t for t, f in zip(times, traced) if not f]
        record["layers"] = tracing.layer_totals(spans)
        record["counters"] = counters
        record["traced_op_s"] = sum(t_on)
        record["trace_overhead_s"] = statistics.median(t_on) - statistics.median(t_off)
        with gzip.open(out_dir / "spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "spans": spans}, fh)
    with open(out_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _dump(out, record)


def _merge_child_spans(out_dir: Path, counters: dict) -> list:
    """Concatenate the span files of traced CLI children, re-basing parent indices."""
    spans: list = []
    for path in sorted(out_dir.glob("op*.spans.json")):
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1, op]
                  for n, s, e, p, op in child["spans"]]
        for key, value in child["counters"].items():
            counters[key] += value
    return spans


def _dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
