"""Batch experiment runner.

Subcommands: kappa, identity-check, sweep, strichartz, sharpness,
solve-potential, selftest.  Results go to stdout plus an optional --output
file as CSV (default) or JSON (--format json).  A --config JSON file (with a
top-level "version" field) holds flag values, parsed as the same flags;
explicit command-line flags override it.  Runs are deterministic: --seed keys the
counter-based Philox stream of the fields drawn here (_rng) and numpy's PCG64
default_rng(seed) of sweep's random witnesses and solve-potential's gate constant;
floats have 17 significant digits, so identical configurations give byte-identical files.

Exit codes: 0 success, 1 validation/configuration error (including
non-finite numeric flags) or an exceeded resource limit (band cap, out of
memory), 2 numerical error (identity/selftest tolerance exceeded, Picard
divergence, or a non-finite or vacuous computed result).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import experiments as xp
from . import norms
from . import potential as pot
from .grids import ResourceLimitError, forward_sht, grid_for, integrate, inverse_sht
from .spectral import (
    nyquist_time_grid,
    propagate,
    random_field,
    synthesize_history,
)

CONFIG_VERSION = 1


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    return float(text)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"--{name} must be finite, got {value}")
    return value


def _parse_degrees(spec: str, count: int) -> tuple:
    """Degree list: 'a:b' (log-spaced), 'a:b:k' (k points), or 'n1,n2,...'."""
    if ":" in spec:
        lo, hi, *k = spec.split(":")
        if len(k) > 1:
            raise ValueError(f"degree spec {spec!r} has more than three ':' fields")
        return xp.geometric_degrees(int(lo), int(hi), int(k[0]) if k else count)
    return tuple(sorted({int(tok) for tok in spec.split(",") if tok}))


def _write_rows(args, columns, rows, summary=None) -> None:
    """Write result rows to --output; any non-finite float result raises first."""
    for value in [v for row in rows for v in row] + list((summary or {}).values()):
        if isinstance(value, float) and not math.isfinite(value):
            raise FloatingPointError(f"non-finite result {value!r}")
    if not args.output:
        return
    if args.format == "json":
        payload = {
            "version": CONFIG_VERSION,
            "columns": list(columns),
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        if summary:
            payload["summary"] = {k: _fmt(v) for k, v in summary.items()}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name.replace('_', '-')} is required")
    return value


def _cmd_kappa(args) -> int:
    p = _parse_p(_require(args, "p"))
    pc = xp.p_critical(args.d)
    branch = "subcritical" if p <= pc else "supercritical"
    kp = xp.kappa_p(p, args.d)
    rows = [[args.d, args.p, kp, branch, pc]]
    cols = ["d", "p", "kappa_p", "branch", "p_critical"]
    print(f"kappa_p = {_fmt(kp)}  ({branch} branch, p_c = {_fmt(pc)})")
    if args.q is not None:
        kpq = xp.kappa_pq(p, args.q, args.d)
        cols += ["q", "kappa_pq"]
        rows[0] += [args.q, kpq]
        print(f"kappa_pq = {_fmt(kpq)}  (q = {_fmt(args.q)})")
    _write_rows(args, cols, rows)
    return 0


def _cmd_identity_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be an integer >= 1, got {args.trials!r}")
    _finite("tol", args.tol)
    rng = _rng(args.seed)
    grid = grid_for(args.N, args.d, 2.0)
    tg = nyquist_time_grid(args.N, args.d)
    ps = [norms._check_p(_parse_p(tok)) for tok in args.p_list.split(",")]
    rows = []
    worst = 0.0
    for trial in range(args.trials):
        f = random_field(args.N, args.d, rng)
        u = synthesize_history(f, tg, grid)
        prof = norms.l2t_profile_exact(f, grid)
        sums = norms._time_sums(u, 2.0)  # mixed_norm(u, p, 2.0) for every p, from one pass
        for p in ps:
            sampled = norms._norm_of_sums(sums, u, p, 2.0)
            spectral = norms.lp_norm(prof, grid, p)
            rel = abs(sampled - spectral) / spectral
            worst = max(worst, rel)
            rows.append([trial, "inf" if p == math.inf else p, sampled, spectral, rel])
    _write_rows(args, ["trial", "p", "sampled", "spectral", "rel_error"], rows,
                {"max_rel_error": worst})
    print(f"max relative error over {args.trials} trials x p in {{{args.p_list}}}: "
          f"{_fmt(worst)}  (tolerance {_fmt(args.tol)})")
    if worst > args.tol:
        print("identity check FAILED", file=sys.stderr)
        return 2
    return 0


_FAMILY_ALIASES = {
    "zonal": "zonal-kernel",
    "zonal-kernel": "zonal-kernel",
    "highest-weight": "highest-weight",
    "hw": "highest-weight",
    "random": "random-eigenspace",
    "random-eigenspace": "random-eigenspace",
}


def _cmd_sweep(args) -> int:
    degrees = _parse_degrees(args.n, args.count)
    p = _parse_p(_require(args, "p"))
    family = _FAMILY_ALIASES[args.family]
    rows, fit = xp.projection_ratio_sweep(args.d, p, family, degrees, args.oversample, args.seed)
    out = [[n, r, args.p, 2.0, 0.0, args.d, family] for n, r in rows]
    _write_rows(args, ["n", "ratio", "p", "q", "s", "d", "family"], out,
                {"slope": fit.slope, "intercept": fit.intercept, "stderr": fit.stderr})
    print(f"fitted slope over n in [{fit.n_min}, {fit.n_max}]: {fit.slope:.6f} "
          f"(stderr {fit.stderr:.2g}, {fit.count} degrees)")
    return 0


def _cmd_strichartz(args) -> int:
    p = _parse_p(_require(args, "p"))
    _finite("q", args.q)
    s = xp.kappa_pq(p, args.q, args.d) if args.s == "auto" else _finite("s", float(args.s))
    rng = _rng(args.seed)
    if args.family == "random":
        f = random_field(args.N, args.d, rng)
    else:
        f = xp.make_family(_FAMILY_ALIASES[args.family], args.N, args.d, rng=rng)
    ratio = xp.strichartz_ratio(f, p, args.q, s)
    _write_rows(args, ["N", "p", "q", "s", "d", "family", "ratio"],
                [[args.N, args.p, args.q, s, args.d, args.family, ratio]])
    print(f"ratio = {_fmt(ratio)}  (N={args.N}, p={args.p}, q={_fmt(args.q)}, "
          f"s={_fmt(s)})")
    return 0


def _cmd_sharpness(args) -> int:
    degrees = _parse_degrees(args.n, args.count)
    p = _parse_p(_require(args, "p"))
    s = xp.kappa_pq(p, 2.0, args.d) if args.s == "auto" else _finite("s", float(args.s))
    xp._check_points(len(degrees))  # the fit's count, before any witness
    per_family = xp.sharpness_rows(p, s, args.d, degrees)
    rows = [[n, r, args.p, 2.0, s, args.d, fam]
            for fam, fam_rows in per_family.items() for n, r in fam_rows]
    fit = xp.steepest_fit(per_family)
    _write_rows(args, ["n", "ratio", "p", "q", "s", "d", "family"], rows,
                {"slope": fit.slope, "stderr": fit.stderr,
                 "expected_slope": xp.kappa_pq(p, 2.0, args.d) - s})
    print(f"growth slope at s={_fmt(s)}: {fit.slope:.6f} "
          f"(expected ~{xp.kappa_pq(p, 2.0, args.d) - s:.3f})")
    return 0


def _cmd_solve_potential(args) -> int:
    p = _parse_p(args.p)
    s = xp.kappa_pq(p, 2.0, args.d) if args.s == "auto" else _finite("s", float(args.s))
    _finite("tol", args.tol)
    with open(_require(args, "potential"), "r", encoding="utf-8") as fh:
        V = pot.PotentialSpec.from_json_dict(json.load(fh), d=args.d)
    rng = _rng(args.seed)
    f = random_field(args.N, args.d, rng)
    tg = None if args.M is None else pot.TimeGrid(args.M)
    u, rep = pot.picard_solve(f, V, p, s, tol=args.tol, max_iter=args.max_iter,
                              tg=tg, seed=args.seed)
    rows = [[k + 1, inc] for k, inc in enumerate(rep.increments)]
    _write_rows(args, ["iterate", "x_norm_increment"], rows, {
        "iterations": rep.iterations,
        "contraction_ratio": rep.contraction_ratio,
        "residual": rep.residual,
        "v_norm": rep.v_norm,
        "c0_estimate": rep.c0_estimate,
        "smallness_ok": rep.smallness_ok,
        "l2_drift": pot.l2_drift(u),
    })
    print(f"converged in {rep.iterations} iterates; contraction ratio "
          f"{rep.contraction_ratio:.4g}; residual {rep.residual:.3g}; "
          f"smallness gate {'ok' if rep.smallness_ok else 'NOT satisfied'}")
    return 0


def _cmd_selftest(args) -> int:
    rng = _rng(args.seed)
    checks = []

    def check(name, value, tol):
        ok = value <= tol
        checks.append((name, value, tol, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (tol {tol:.0e})")

    N = args.N
    for d, name in ((2, "sphere"), (3, "zonal(d=3)")):
        grid = grid_for(N, d, 1.0)  # band N: exact for |f|^2 of a band-N field
        f = random_field(N, d, rng)
        vals = inverse_sht(f, grid)  # a zonal table is synthesized on its zonal grid
        back = forward_sht(vals, grid, N)
        check(f"{name} round-trip N={N}", float(np.max(np.abs(back.a - f.a))), 1e-12)
        check(f"{name} Parseval N={N}",
              abs(integrate(np.abs(vals) ** 2, grid) - np.sum(np.abs(f.a) ** 2)), 1e-12)

    small = random_field(32, 2, rng)
    t = float(rng.uniform(0, 2 * math.pi))
    check("propagator unitarity",
          abs(propagate(small, t).l2_norm() - small.l2_norm()), 1e-13)
    check("propagator 2pi-periodicity",
          float(np.max(np.abs(propagate(small, 2 * math.pi).a - small.a))), 1e-13)

    rows = [[name, value, tol, "pass" if ok else "fail"]
            for name, value, tol, ok in checks]
    _write_rows(args, ["check", "value", "tolerance", "status"], rows)
    if all(ok for *_, ok in checks):
        print("selftest: all checks passed")
        return 0
    print("selftest: FAILURES present", file=sys.stderr)
    return 2


def _add_common(sp):
    sp.exit_on_error = False  # a flag value argparse cannot parse: `error: ...`, exit 1
    sp.add_argument("--config", help="JSON config file supplying flag defaults")
    sp.add_argument("--output", help="result file path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser."""
    ap = argparse.ArgumentParser(
        prog="sphere-strichartz",
        description="Spectral experiments for the Schrodinger flow on the d-sphere",
        exit_on_error=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kappa", help="print the projection growth exponent")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--p", default=None)
    sp.add_argument("--q", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_kappa)

    sp = sub.add_parser("identity-check",
                        help="time-sampled mixed norm vs exact spectral profile")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--N", type=int, default=16)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--p-list", default="2,4,inf")
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp)
    sp.set_defaults(func=_cmd_identity_check)

    sp = sub.add_parser("sweep", help="projection-norm ratio sweep and log-log fit")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--p", default=None)
    sp.add_argument("--family", default="zonal", choices=sorted(_FAMILY_ALIASES))
    sp.add_argument("--n", default="16:256", help="degrees: 'a:b', 'a:b:k', or list")
    sp.add_argument("--count", type=int, default=12)
    sp.add_argument("--oversample", type=float, default=2.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("strichartz", help="mixed-norm / Sobolev ratio for one field")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--N", type=int, default=16)
    sp.add_argument("--p", default=None)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--s", default="auto")
    sp.add_argument("--family", default="random", choices=sorted(_FAMILY_ALIASES))
    _add_common(sp)
    sp.set_defaults(func=_cmd_strichartz)

    sp = sub.add_parser("sharpness", help="ratio growth below the sharp regularity")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--p", default=None)
    sp.add_argument("--s", default="auto")
    sp.add_argument("--n", default="16:256")
    sp.add_argument("--count", type=int, default=12)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser("solve-potential", help="Picard solve with a separable potential")
    sp.add_argument("--potential", default=None, help="potential spec JSON file")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--p", default="4")
    sp.add_argument("--s", default="auto")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iter", type=int, default=30)
    sp.add_argument("--M", type=int, default=None, help="time nodes, default max(64, 8(lam_N+1))")
    _add_common(sp)
    sp.set_defaults(func=_cmd_solve_potential)

    sp = sub.add_parser("selftest", help="transform round-trip and propagator checks")
    sp.add_argument("--N", type=int, default=128)
    _add_common(sp)
    sp.set_defaults(func=_cmd_selftest)
    return ap


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    version = cfg.pop("version", None)
    if version != CONFIG_VERSION:
        raise ValueError(f"config version {version!r} != {CONFIG_VERSION}")
    bad = sorted(k for k, v in cfg.items() if v is None or isinstance(v, (bool, list, dict)))
    if bad:
        raise ValueError(f"config values must be numbers or strings: {bad}")
    return cfg


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse argv; a --config file's values are parsed as flags of its subcommand, flags win."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    args = build_parser().parse_args(argv)
    if path is None:
        return args
    cfg = _load_config(path)
    unknown = set(cfg) - (set(vars(args)) - {"command", "func", "config"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    i = argv.index(args.command) + 1  # `--key=value` tokens first: explicit flags override them
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in cfg.items()]
    return build_parser().parse_args(argv[:i] + flags + argv[i:])


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except pot.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except (norms.TimeResolutionError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (ResourceLimitError, ValueError, OverflowError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
