"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py        # from the root of a source checkout

1. The checks catch a result perturbed by a relative 1e-8: the q=2 and
   p=q=4 mixed-norm checks, and the CLI byte-identity check.  The Picard
   check tests convergence diagnostics (residual, contraction, finiteness),
   so it is shown rejecting a non-finite solution and a residual above 1e-6.
2. Changing the seed changes every op's inputs but not the op count or the
   op kinds.
3. BENCHMARK.json lists exactly the workloads and metrics run.py reports.

Prints one PASS/FAIL line per claim; exits 1 if any fails.
"""

import copy
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".bench_out" / "selftest"
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
RUN_SECONDS = BENCH["run_seconds"]
results = []


def claim(text: str, ok: bool) -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {text}")


def perturbation() -> None:
    free = workloads.WORKLOADS["free_mixed_norm"]
    for kind in ("N16-p4q4-smooth", "N16-p6q2-nyquist"):
        op = free.make_op(1, 0, kind, OUT)
        ratio = free.run(op)
        good, _ = free.check_one(op, ratio)
        bad, detail = free.check_one(op, ratio * (1 + 1e-8))
        claim(f"free_mixed_norm {kind}: exact result ok, 1e-8 perturbation caught "
              f"({detail})", good == "ok" and bad == "wrong")

    pic = workloads.WORKLOADS["picard_potential"]
    op = pic.make_op(1, 0, "N4", OUT)
    u, rep = pic.run(op)[0]
    good = pic.check([op], [[(u, rep)]])[0][0]
    u_nan = copy.deepcopy(u)
    u_nan.tables[3, 1, 1] = np.nan
    rep_far = copy.deepcopy(rep)
    rep_far.residual = 2e-6
    bad = [pic.check([op], [[r]])[0][0] for r in ((u_nan, rep), (u, rep_far))]
    claim("picard_potential N4: converged solve ok; NaN in solution and residual 2e-6 "
          "caught", good == "ok" and bad == ["wrong", "wrong"])

    cli = workloads.WORKLOADS["cli_cold_start"]
    OUT.mkdir(parents=True, exist_ok=True)
    ops = [cli.make_op(1, i, "sharpness", OUT) for i in (0, 4)]
    ratio = 0.12345678901234567
    body = f"n,ratio\n16,{ratio:.17g}\n"
    perturbed = f"n,ratio\n16,{ratio * (1 + 1e-8):.17g}\n"
    exit0 = {"returncode": 0, "stdout": "", "stderr": ""}
    ops[0].data[1].write_text(body)
    ops[1].data[1].write_text(body)
    same = [s for s, _ in cli.check(ops, [exit0, exit0])]
    ops[1].data[1].write_text(perturbed)
    diff = [s for s, _ in cli.check(ops, [exit0, exit0])]
    claim("cli_cold_start: identical repeats ok, 1e-8 change in one repeat caught",
          same == ["ok", "ok"] and diff == ["ok", "wrong"])


def seeds() -> None:
    for name, wl in workloads.WORKLOADS.items():
        cycles = workloads.cycles_for(wl, RUN_SECONDS)
        a = wl.make_ops(1, cycles, OUT)
        b = wl.make_ops(2, cycles, OUT)
        same_plan = [(o.index, o.kind) for o in a] == [(o.index, o.kind) for o in b]
        changed = all(_inputs(x) != _inputs(y) for x, y in zip(a, b))
        claim(f"{name}: seeds 1 and 2 give {len(a)} and {len(b)} ops of the same kinds; "
              f"every op's inputs differ", same_plan and changed)


def _inputs(op) -> bytes:
    """Bytes of an op's generated inputs: the CLI seed, or field and potential."""
    if "argv" in op.params:
        return repr(op.params["argv"][:-2]).encode()
    fields = op.data[0] if isinstance(op.data[0], tuple) else (op.data[0],)
    return b"".join(f.a.tobytes() for f in fields) + repr(op.params.get("V")).encode()


def manifest() -> None:
    claim("BENCHMARK.json workloads, end-to-end and per-layer metrics match run.py",
          [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
          and [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.E2E)
          and [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
          == run.per_layer_metrics())


if __name__ == "__main__":
    perturbation()
    seeds()
    manifest()
    sys.exit(0 if all(results) else 1)
