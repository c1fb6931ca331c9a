"""The benchmark's three workloads: inputs, the timed op and its checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Ops run in whole cycles over a fixed list of op
kinds, so each run measures the same mix.  Inputs come from the benchmark
seed (one ``numpy.random.default_rng`` stream per op); the seed changes the
inputs, never the number or kind of ops.

An op's check runs after the timed loop and gives one status:

* ``ok``     -- the op succeeded and its output passed its check;
* ``failed`` -- the program reported a failure (exception, non-zero exit);
* ``wrong``  -- an output failed a check: a tolerance, a non-finite value, or
  CLI output that differs between repeats of one command.

Both ``failed`` and ``wrong`` count as failed ops; only ``wrong`` makes the
run incorrect.
"""

from __future__ import annotations

import csv
import io
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INF = math.inf
CHECK_RTOL = 1e-10      # q=2 and p=q=4 identities
PICARD_RESIDUAL = 1e-6
PICARD_CONTRACTION = 0.5


@dataclass
class Op:
    index: int
    kind: str                 # op kind within the cycle
    params: dict              # JSON-ready record of the op's parameters
    data: tuple = field(default=(), repr=False)


def largest_prime_factor(n: int) -> int:
    best, k = 1, 2
    while k * k <= n:
        while n % k == 0:
            best, n = k, n // k
        k += 1
    return max(best, n) if n > 1 else best


def _rng(seed: int, index: int) -> np.random.Generator:
    """Input stream of op `index` (-1 is the warm-up op)."""
    return np.random.default_rng([seed, index + 1])


MIN_OPS = 22  # op_s.tail (rank n-10 of n) then lies above the median


def cycles_for(workload: "Workload", seconds: float) -> int:
    """Whole cycles that take about `seconds` on the reference machine.

    At least two (a traced run alternates traced and untraced cycles) and at
    least MIN_OPS ops.  The count depends on the workload and `seconds` only.
    """
    n = len(workload.kinds)
    return max(2, -(-MIN_OPS // n), round(seconds / workload.nominal_cycle_s))


class Workload:
    name: str
    kinds: tuple              # op kinds of one cycle, in order
    warmup_kind: str
    nominal_cycle_s: float    # one cycle on a 2-core x86 box, Python 3.11
    ops_in_child_processes = False

    def make_ops(self, seed: int, cycles: int, out_dir: Path) -> list:
        n = len(self.kinds)
        return [self.make_op(seed, i, self.kinds[i % n], out_dir)
                for i in range(cycles * n)]

    def warmup_op(self, seed: int, out_dir: Path) -> Op:
        return self.make_op(seed, -1, self.warmup_kind, out_dir)

    def trace_counts(self, result) -> dict:
        """Counters a traced op adds, read from its result."""
        return {}


# -- free_mixed_norm --------------------------------------------------------

def u2_parseval(f, grid) -> float:
    """int_S int_0^{2pi} |u|^4 dt dz of the free evolution, with no time sampling.

    u(t, z) = sum_n e^{i lam_n t} E_n(z), so u^2 has time frequencies
    lam_n + lam_n'; by Parseval in t the integral is 2 pi sum_w int |F_w|^2
    with F_w = sum over pairs with lam_n + lam_n' = w of E_n E_n'.
    """
    from sphere_strichartz.spectral import synthesize_by_degree

    E = synthesize_by_degree(f, grid).reshape(f.N + 1, -1)
    n = np.arange(f.N + 1)
    lam = n * (n + f.d - 1)
    F: dict = {}
    for i in range(f.N + 1):
        for j in range(i, f.N + 1):
            term = E[i] * E[j] * (1.0 if i == j else 2.0)
            w = int(lam[i] + lam[j])
            F[w] = F[w] + term if w in F else term
    weights = grid.weights().reshape(-1)
    return 2.0 * math.pi * sum(float(np.sum(weights * np.abs(v) ** 2)) for v in F.values())


FREE_SIZES = (12, 16, 20)
FREE_PAIRS = ((4.0, 4.0), (INF, 2.0), (6.0, 2.0))


class FreeMixedNorm(Workload):
    """strichartz_ratio(..., method="sampled") on seeded random band-N fields."""

    name = "free_mixed_norm"
    # consecutive ops alternate between the two time grids
    kinds = tuple(f"N{N}-p{'inf' if p == INF else int(p)}q{int(q)}-{tg}"
                  for N in FREE_SIZES for p, q in FREE_PAIRS
                  for tg in ("smooth", "nyquist"))
    warmup_kind = kinds[0]
    nominal_cycle_s = 3.3

    def make_op(self, seed, index, kind, out_dir):
        from scipy.fft import next_fast_len
        from sphere_strichartz.experiments import kappa_pq
        from sphere_strichartz.grids import grid_for
        from sphere_strichartz.spectral import TimeGrid, nyquist_time_grid, random_field

        n_part, pq_part, tg_kind = kind.split("-")
        N = int(n_part[1:])
        p_text, q_text = pq_part[1:].split("q")
        p, q = (INF if p_text == "inf" else float(p_text)), float(q_text)
        nu = max(2.0, (2.0 if p == INF else p) / 2.0)
        grid = grid_for(N, 2, nu)
        lam = N * (N + 1)
        # criterion 8's 5-smooth grid, or the library default
        tg = TimeGrid(next_fast_len(2 * lam + 2)) if tg_kind == "smooth" \
            else nyquist_time_grid(N, 2)
        s = kappa_pq(p, q, 2)
        f = random_field(N, 2, _rng(seed, index))
        params = {"N": N, "p": "inf" if p == INF else p, "q": q, "s": s, "nu": nu,
                  "grid": list(grid.shape), "M": tg.M,
                  "M_largest_prime": largest_prime_factor(tg.M), "time_grid": tg_kind}
        return Op(index, kind, params, (f, grid, tg, p, q, s))

    def run(self, op, trace_path=None):
        from sphere_strichartz.experiments import strichartz_ratio

        f, grid, tg, p, q, s = op.data
        return strichartz_ratio(f, p, q, s, grid=grid, tg=tg, method="sampled")

    def check(self, ops, results):
        return [self.check_one(op, r) for op, r in zip(ops, results)]

    @staticmethod
    def check_one(op, ratio):
        from sphere_strichartz.norms import l2t_profile_exact, lp_norm, sobolev_norm

        f, grid, _, p, q, s = op.data
        if not math.isfinite(ratio):
            return "wrong", f"non-finite ratio {ratio!r}"
        num = ratio * sobolev_norm(f, s)
        if q == 2.0:
            ref = lp_norm(l2t_profile_exact(f, grid), grid, p)
            rel = abs(num - ref) / ref
            what = "l2t_profile_exact"
        else:
            ref = u2_parseval(f, grid)
            rel = abs(num ** 4 - ref) / ref
            what = "||u^2||^2 Parseval form"
        status = "ok" if rel <= CHECK_RTOL else "wrong"
        return status, f"rel diff {rel:.3e} vs {what} (tol {CHECK_RTOL:g})"


# -- picard_potential -------------------------------------------------------

def band1_potential(rng: np.random.Generator):
    """Small real separable potential a(t) B(x): a(t) = 2 Re(c e^{it}), B of degree 1.

    The README's example is a = 0.03 cos t, B = Y_{1,0}.  Here |c| = 0.015 as
    there, with a random phase, and B is a random real unit-norm degree-1
    harmonic (a_{1,-1} = -conj(a_{1,1}) makes B real).  The fixed size keeps
    the iterate count, and so the op's cost, nearly independent of the seed.
    """
    from sphere_strichartz.grids import CoefficientTable
    from sphere_strichartz.potential import PotentialSpec, PotentialTerm

    c = 0.015 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    b0 = rng.standard_normal()
    b1 = complex(rng.standard_normal(), rng.standard_normal())
    B = CoefficientTable.zeros(1, 2)
    B.a[1, 0], B.a[1, 2], B.a[1, 1] = -np.conj(b1), b1, b0
    B.a /= np.linalg.norm(B.a)
    return PotentialSpec([PotentialTerm(np.array([1, -1]), np.array([c, np.conj(c)]), B)])


class PicardPotential(Workload):
    """picard_solve(f, V, p=4, s=kappa_{4,2}) with default time grid 8(lambda_N+1).

    One op solves one seeded problem at N = 4, 5 and 6: the same potential V
    with a random field of each band, three picard_solve calls in a row.  The
    op's time is interpreter-bound, and on a shared host the speed of such
    code drifts by up to 2x within a minute (big-FFT ops stay within 5%); a 1.3 s
    op averages that drift, where the median of single 0.2-0.7 s solves
    jumped between fast and slow stretches (run-to-run spread 0.23 against
    0.16 for the three-solve op, same ten runs).
    """

    name = "picard_potential"
    kinds = ("N4+N5+N6",)
    warmup_kind = "N4"
    nominal_cycle_s = 1.3

    def make_op(self, seed, index, kind, out_dir):
        from sphere_strichartz.experiments import kappa_pq
        from sphere_strichartz.spectral import random_field

        sizes = [int(part[1:]) for part in kind.split("+")]
        rng = _rng(seed, index)
        V = band1_potential(rng)
        fields = tuple(random_field(N, 2, rng) for N in sizes)
        s = kappa_pq(4.0, 2.0, 2)
        return Op(index, kind, {"N": sizes, "p": 4.0, "s": s,
                                "V": V.to_json_dict()}, (fields, V, s))

    def run(self, op, trace_path=None):
        from sphere_strichartz.potential import picard_solve

        fields, V, s = op.data
        return [picard_solve(f, V, p=4.0, s=s) for f in fields]

    def trace_counts(self, result):
        return {"potential.picard.iterations": sum(rep.iterations for _, rep in result)}

    def check(self, ops, results):
        out = []
        for op, solves in zip(ops, results):
            solved = [self.check_solve(op, u, rep) for u, rep in solves]
            status = "ok" if all(st == "ok" for st, _ in solved) else "wrong"
            out.append((status, "; ".join(f"N={N}: {detail}"
                                          for N, (_, detail) in zip(op.params["N"], solved))))
        return out

    @staticmethod
    def check_solve(op, u, rep):
        for key, value in (("grid", list(u.grid.shape)), ("M", u.tg.M),
                           ("M_largest_prime", largest_prime_factor(u.tg.M)),
                           ("iterations", rep.iterations), ("residual", rep.residual),
                           ("contraction", rep.contraction_ratio)):
            op.params.setdefault(key, []).append(value)
        finite = bool(np.all(np.isfinite(u.tables.view(float))))
        ok = (finite and rep.converged and rep.residual <= PICARD_RESIDUAL
              and rep.contraction_ratio <= PICARD_CONTRACTION)
        return ("ok" if ok else "wrong",
                f"converged={rep.converged} residual {rep.residual:.2e} "
                f"(<= {PICARD_RESIDUAL:g}) contraction {rep.contraction_ratio:.3g} "
                f"(<= {PICARD_CONTRACTION:g}) finite={finite}")


# -- cli_cold_start ---------------------------------------------------------

CLI_COMMANDS = {
    "selftest": ["selftest", "--N", "256"],
    "sweep-d2": ["sweep", "--d", "2", "--p", "4", "--family", "random", "--n", "32:256:6"],
    "sweep-d3": ["sweep", "--d", "3", "--p", "inf", "--family", "zonal", "--n", "16:256"],
    "sharpness": ["sharpness", "--p", "inf", "--s", "0.4", "--n", "16:256"],
}
_CHILD = str(Path(__file__).resolve().parent / "cli_child.py")


class CliColdStart(Workload):
    """One fresh `python -m sphere_strichartz.cli` process per op."""

    name = "cli_cold_start"
    kinds = tuple(CLI_COMMANDS)
    warmup_kind = "sweep-d3"
    nominal_cycle_s = 4.5
    ops_in_child_processes = True

    def make_op(self, seed, index, kind, out_dir):
        # one CLI seed per command, so repeats of a command must agree byte for byte
        cli_seed = int(np.random.default_rng([seed, 1 + self.kinds.index(kind)])
                       .integers(1, 2**31 - 1))
        name = "warmup" if index < 0 else f"op{index:04d}"
        output = out_dir / f"{name}.csv"
        argv = CLI_COMMANDS[kind] + ["--seed", str(cli_seed), "--output", str(output)]
        return Op(index, kind, {"argv": argv}, (argv, output))

    def run(self, op, trace_path=None):
        argv, output = op.data
        if output.exists():
            output.unlink()
        if trace_path is None:
            cmd = [sys.executable, "-m", "sphere_strichartz.cli", *argv]
        else:
            cmd = [sys.executable, _CHILD, str(trace_path), str(op.index), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        return {"returncode": proc.returncode, "stdout": proc.stdout[-2000:],
                "stderr": proc.stderr[-2000:]}

    def check(self, ops, results):
        first: dict = {}
        out = []
        for op, res in zip(ops, results):
            _, output = op.data
            body = output.read_bytes() if output.exists() else None
            notes = []
            status = "ok"
            if res["returncode"] != 0:
                status = "failed"
                fails = [ln for ln in res["stdout"].splitlines() if ln.startswith("FAIL")]
                notes.append(f"exit {res['returncode']}: " + "; ".join(fails or
                                                                     [res["stderr"][-300:]]))
            if body is None:
                if status == "ok":
                    status = "wrong"
                notes.append("no output file")
            else:
                bad = _non_finite(body)
                if bad:
                    status = "wrong"
                    notes.append(f"non-finite {bad}")
                ref = first.setdefault(op.kind, body)
                if body != ref:
                    status = "wrong"
                    notes.append("output differs from the first repeat")
            out.append((status, "; ".join(notes) or "exit 0, output matches repeats"))
        return out


def _non_finite(body: bytes) -> str:
    """Name of the first result column (ratio/value) holding a non-finite number."""
    for row in csv.DictReader(io.StringIO(body.decode())):
        for col in ("ratio", "value"):
            if col not in row:
                continue
            try:
                finite = math.isfinite(float(row[col]))
            except ValueError:
                finite = False
            if not finite:
                return f"{col}={row[col]}"
    return ""


WORKLOADS = {w.name: w for w in (FreeMixedNorm(), PicardPotential(), CliColdStart())}
