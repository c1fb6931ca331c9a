"""sphere-strichartz benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/sphere_strichartz``
and nothing installed).  NAME is one of the workloads in workloads.py, or
``all`` to run each in turn and print every metric by name and unit.

Each workload runs in its own fresh worker process, one op at a time, with
BLAS threads capped at the number of usable cores (one for picard_potential,
see BLAS_THREADS).  With ``--trace 0`` the
last stdout line reports the end-to-end metrics:

* ``setup_s``       median over SETUP_SAMPLES fresh processes of import +
                    input generation + one untimed warm-up op;
* ``op_s.p50``      median wall time per op, by nearest rank (rank ceil(n/2)
                    of n, a measured op time);
* ``op_s.tail``     the op time with exactly ten ops beyond it (rank n-10 of
                    n; the percentile is fixed by the op count, printed);
* ``ops_per_s``     ops over the timed loop's wall time;
* ``peak_rss_mb``   peak RSS of the worker, or of its largest child process
                    for cli_cold_start.

Failed ops are counted in the result line's ``failed`` field and printed as
``failed_ratio``; that ratio is not a bounded metric, because the one known
failure (``selftest --N 256``, a zonal transform defect near its 1e-12
tolerance) depends on the CLI seed and so on the benchmark seed.

With ``--trace 1`` it reports the per-layer metrics instead: calls and self
time of each wrapped layer over the traced ops, cache and FFT counters, the
tracing overhead (traced minus untraced ``op_s.p50``) and the grids probe at
N = 128, 256, 512.  Spans and a per-op record (environment, op parameters,
times, check results) are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNTERS, GENERATORS, LAYERS  # noqa: E402

WORKLOAD_NAMES = ("free_mixed_norm", "picard_potential", "cli_cold_start")
SETUP_SAMPLES = 3
PROBE_BANDS = (128, 256, 512)
TOTAL_BUDGET_S = 170.0  # per workload; children still running then are killed
# BLAS threads per worker, where not the number of usable cores.  A Picard op
# makes thousands of tiny BLAS calls: a second thread there only spins (process
# CPU time 1.8x wall) and, whenever the other core is busy, each call waits for
# it (one N=5 op took 0.75 s of wall time for 0.50 s of calling-thread time).
BLAS_THREADS = {"picard_potential": 1}

# Which workload each layer should move (the benchmark's stated predictions).
PREDICTED = {
    "grids.": ("picard_potential", "cli_cold_start"),
    "harmonics.": ("cli_cold_start",),
    "norms.": ("free_mixed_norm",),
    "spectral.synthesize_by_degree": ("free_mixed_norm",),
    "spectral.iter_space_chunks": ("free_mixed_norm",),
    "spectral.": ("picard_potential",),
    "potential.": ("picard_potential",),
    "experiments.": ("free_mixed_norm", "cli_cold_start"),
    "cli.": ("cli_cold_start",),
}

E2E = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
       ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name, _, _ in LAYERS:
        if name not in GENERATORS:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [("grids.legendre_tables.hit_ratio", "ratio", "higher"),
            ("grids.legendre_tables.misses", "count", "lower"),
            ("norms.time_fft.points", "count", "lower"),
            ("norms.time_fft.bytes_computed", "bytes", "lower"),
            ("potential.picard.iterations", "count", "lower"),
            ("trace.overhead_s", "s", "lower")]
    for n in PROBE_BANDS:
        out += [(f"grids_probe.N{n}.inverse_sht_s", "s", "lower"),
                (f"grids_probe.N{n}.forward_sht_s", "s", "lower"),
                (f"grids_probe.N{n}.table_build_s", "s", "lower"),
                (f"grids_probe.N{n}.peak_rss_mb", "MB", "lower")]
    return out


class Runner:
    def __init__(self, root: Path):
        self.root = root
        self.deadline = 0.0  # monotonic time by which every child must have ended
        self.scratch = root / ".bench_out"
        self.scratch.mkdir(exist_ok=True)
        self.nproc = len(os.sched_getaffinity(0))
        src = str(root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.blas_threads(self.nproc)

    def blas_threads(self, n: int) -> None:
        """Cap the BLAS threads of every process started from now on."""
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(n)

    def worker(self, name, seed, seconds, trace, setup_only=False) -> dict:
        flags = ["--setup-only"] if setup_only else []
        return self.run("worker.py", self.root, name, seed, seconds, int(trace), *flags)

    def run(self, script: str, *args) -> dict:
        """Run a benchmark script in its own session; return the JSON it wrote.

        The script's first argument is the path it writes its result to.
        """
        out = self.scratch / f"{Path(script).stem}-{os.getpid()}.json"
        if out.exists():
            out.unlink()
        cmd = [sys.executable, str(HERE / script), str(out), *map(str, args)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0 or not out.exists():
            raise RuntimeError(f"{script} exited with code {code}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def nearest_rank(times: list, rank: int) -> float:
    """The op time of 1-based `rank` in ascending order: a measured value."""
    return sorted(times)[rank - 1]


def end_to_end(runner: Runner, name: str, seed: int, seconds: float):
    rec = runner.worker(name, seed, seconds, False)
    setups = [rec["setup_s"]] + [runner.worker(name, seed, seconds, False, True)["setup_s"]
                                 for _ in range(SETUP_SAMPLES - 1)]
    times = rec["op_times"]
    n = len(times)
    ok = rec["statuses"].count("ok")
    tail_rank = max(1, n - 10)
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50": nearest_rank(times, -(-n // 2)),
        "op_s.tail": nearest_rank(times, tail_rank),
        "ops_per_s": n / rec["loop_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    notes = {"op_s.tail": f"p{100 * tail_rank / n:.1f} of {n} ops",
             "setup_s": f"median of {SETUP_SAMPLES}"}
    lines = [f"{name} seed={seed}: {n} ops, {n - ok} failed (failed_ratio {(n - ok) / n:.4g})"]
    for metric, unit in E2E:
        lines.append(f"  {metric:<15} {values[metric]:>12.6g} {unit:<6} {notes.get(metric, '')}")
    for op in rec["ops"]:
        if op["status"] != "ok":
            lines.append(f"  op {op['index']} {op['kind']}: {op['status']}: {op['detail']}")
    metrics = {m: {"value": values[m], "unit": u} for m, u in E2E}
    return metrics, rec["statuses"], lines


def _predicted(layer: str) -> tuple:
    for prefix, where in PREDICTED.items():
        if layer.startswith(prefix):
            return where
    return ()


def per_layer(runner: Runner, name: str, seed: int, seconds: float):
    rec = runner.worker(name, seed, seconds, True)
    layers, counters = rec["layers"], rec["counters"]
    values = {}
    for layer, _, _ in LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        if layer not in GENERATORS:
            values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    hits = counters["grids.legendre_tables.hits"]
    misses = counters["grids.legendre_tables.misses"]
    values["grids.legendre_tables.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in COUNTERS[1:]:
        values[key] = counters[key]
    values["trace.overhead_s"] = rec["trace_overhead_s"]
    probe_lines = []
    runner.blas_threads(runner.nproc)  # the same cap for the probe on every workload
    for n in PROBE_BANDS:
        probe = runner.run("probe.py", n, seed)
        for key in ("inverse_sht_s", "forward_sht_s", "table_build_s", "peak_rss_mb"):
            values[f"grids_probe.N{n}.{key}"] = probe[key]
        probe_lines.append(
            f"  grids probe N={n} grid {probe['grid']}: inverse_sht {probe['inverse_sht_s']:.4f} s,"
            f" forward_sht {probe['forward_sht_s']:.4f} s, table build "
            f"{probe['table_build_s']:.4f} s, peak RSS {probe['peak_rss_mb']:.0f} MB, "
            f"round-trip error {probe['round_trip_error']:.1e}")
    total = rec["traced_op_s"]
    lines = [f"{name} seed={seed} traced: {sum(1 for o in rec['ops'] if o['traced'])} "
             f"traced ops, {total:.3f} s; overhead {rec['trace_overhead_s']:+.4f} s/op (p50)",
             f"  {'layer':<42} {'calls':>8} {'self_s':>10} {'share':>7}  predicted to move here"]
    for layer, (calls, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        where = "yes" if name in _predicted(layer) else ("-" if layer == "op" else "no")
        lines.append(f"  {layer:<42} {calls:>8} {self_s:>10.4f} {self_s / total:>7.1%}  {where}")
    # for cli_cold_start this is process start-up, imports and exit
    outside = total - sum(self_s for _, self_s in layers.values())
    lines.append(f"  {'(op time outside every span)':<42} {'':>8} {outside:>10.4f} "
                 f"{outside / total:>7.1%}")
    lines += probe_lines
    metrics = {m: {"value": values[m], "unit": u} for m, u, _ in per_layer_metrics()}
    return metrics, rec["statuses"], lines


def main() -> int:
    # SIGTERM unwinds like an exception, so Runner.run kills the running child's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    root = Path.cwd()
    if not (root / "src" / "sphere_strichartz" / "__init__.py").is_file():
        print(f"error: {root} holds no src/sphere_strichartz; run from a source checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    metrics, statuses = {}, []
    try:
        for name in names:
            runner.deadline = time.monotonic() + TOTAL_BUDGET_S
            runner.blas_threads(BLAS_THREADS.get(name, runner.nproc))
            got, st, lines = measure(runner, name, args.seed, args.seconds)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            statuses += st
            print("\n".join(lines), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": "wrong" not in statuses, "attempted": len(statuses),
                      "failed": sum(s != "ok" for s in statuses), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
