"""Moved-output report and byte-identity verdict: run the same CLI commands on two source trees,
say what moved, and exit 1 where the change may not move it.

    python3 tools/compare_outputs.py --base DIR --head DIR [--threads 1] [--report FILE]

Each command runs in a child process per tree (PYTHONPATH=TREE/src, the BLAS thread count
fixed by --threads) at --seed 5 with an --output file; its output file, stdout, stderr and exit
code are compared, as are the exit code and the sorted, de-duplicated `[acceptance]` lines of
each tree's own tests/test_acceptance.py.  For every entry that differs, the table gives the
largest move of each numeric field: relative for values, absolute for increments, residuals,
drifts, defects and errors (a defect of 0 against 1e-16 has no useful relative move).  The table
ends with the line count of src/sphere_strichartz/*.py in each tree.  The whole comparison goes
to one JSON report (--report).

The exit status is 1 when anything differs and no golden digest is re-recorded, or when a
golden command differs whose digest is not (see `rerecorded`); else 0.

The command list is tests/test_golden.py's COMMANDS, imported from this tree, plus EXTRA's
Picard solves, free-path ratios at q = 4 and 6, identity checks at more values of p, one-order
p = inf sweeps to n = 256 and random-field ratios at eight (d, N, p, q).
Needs the standard library, numpy and pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

import test_golden  # noqa: E402  (the golden command list and README's potential)

_SOLVE = ["solve-potential", "--potential", "{potential}", "--format", "json"]
EXTRA = {
    **{f"picard-n{N}": _SOLVE + ["--N", str(N)] for N in (6, 8, 12, 20)},
    **{f"picard-m{M}": _SOLVE + ["--N", "6", "--M", str(M)] for M in (65, 69, 129)},
    **{f"picard-d3-n{N}": _SOLVE + ["--d", "3", "--N", str(N)] for N in (0, 4, 8)},
    # q = 4 on the free path beyond the golden N = 24: the resonant-pair sums
    "strichartz-n64-p4q4": ["strichartz", "--N", "64", "--p", "4", "--q", "4"],
    "strichartz-d3-n48-p4q4": ["strichartz", "--d", "3", "--N", "48", "--p", "4", "--q", "4"],
    "strichartz-d4-n32-p6q4": ["strichartz", "--d", "4", "--N", "32", "--p", "6", "--q", "4"],
    # q = 6 on the free path: every 146-longitude row cut into space chunks of 109 + 37 points
    "strichartz-n24-p6q6": ["strichartz", "--N", "24", "--p", "6", "--q", "6"],
    # identity-check at p beyond the golden {2, 4, inf}: each trial's one set of L^2_t sums
    "identity-check-p-list": ["identity-check", "--N", "16", "--p-list", "1,2,3,4,6,inf"],
    "identity-check-d3-p-list": ["identity-check", "--d", "3", "--N", "10", "--trials", "2",
                                 "--p-list", "2,4,8,inf"],
    # one-order tables (the one-order Legendre rows and the pole check) at the benchmark's
    # degrees; the golden sharpness stops at n = 96
    **{f"sweep-d2-{fam}-inf": ["sweep", "--d", "2", "--p", "inf", "--family", fam, "--n",
                               "16:256"] for fam in ("hw", "zonal")},
    # random fields on the free path at the (N, p, q) of ROADMAP item 2's list
    **{f"strichartz-random-d{d}-n{N}-p{p}q{q}": ["strichartz", "--d", str(d), "--N", str(N),
                                                 "--p", p, "--q", q, "--family", "random"]
       for d, N, p, q in [(2, 12, "4", "4"), (2, 20, "6", "2"), (2, 16, "inf", "2"),
                          (2, 40, "4", "4"), (2, 24, "3", "3"), (2, 30, "8", "6"),
                          (3, 30, "4", "4"), (4, 20, "6", "2")]},
}
COMMANDS = {**test_golden.COMMANDS, **EXTRA}
ACCEPTANCE = "[acceptance]"  # the acceptance lines' prefix, and the name of their entry

# fields whose moves are absolute: near zero by design, so a relative move says nothing
_ABSOLUTE = re.compile(r"increment|residual|drift|defect|error|round-trip|parseval|unitarity|"
                       r"periodicity", re.IGNORECASE)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _child(tree: Path, argv: list, cwd: Path, threads: str):
    """python `argv` in a child process on `tree`'s package, at `threads` BLAS threads."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": threads,
           "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True)


def run(tree: Path, name: str, tmp: Path, threads: str) -> dict:
    """COMMANDS[name] on `tree`: its exit code, stdout, stderr and output bytes."""
    potential = tmp / "potential.json"
    potential.write_text(json.dumps(test_golden.POTENTIAL), encoding="utf-8")
    output = tmp / f"{name}.out"
    output.unlink(missing_ok=True)
    argv = [arg.format(potential=potential) for arg in COMMANDS[name]]
    proc = _child(tree, ["-m", "sphere_strichartz.cli", *argv, "--seed", "5", "--output",
                         str(output)], tmp, threads)
    data = output.read_text(encoding="utf-8") if output.exists() else None
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "output": data}


def acceptance(tree: Path, threads: str) -> dict:
    """`tree`'s own acceptance suite: its exit code and its sorted, de-duplicated lines."""
    proc = _child(tree, ["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                         "tests/test_acceptance.py"], tree, threads)
    lines = sorted({line for line in proc.stdout.splitlines() if line.startswith(ACCEPTANCE)})
    if not lines:  # two empty sets would compare equal and say nothing
        raise SystemExit(f"no {ACCEPTANCE} lines from {tree} (pytest exit {proc.returncode})")
    return {"code": proc.returncode, "lines": "\n".join(lines)}


def output_fields(text: str | None) -> dict:
    """Fields of an --output file, each a list of floats (of strings where not numeric): a JSON
    file's summary keys and row columns, or a CSV file's columns."""
    if not text:
        return {}
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        fields = {key: [value] for key, value in data.get("summary", {}).items()}
        rows, columns = data.get("rows", []), data.get("columns", [])
    else:
        lines = [line.split(",") for line in text.splitlines() if line]
        fields, columns, rows = {}, lines[0], lines[1:]
    for i, column in enumerate(columns):
        fields.setdefault(column, []).extend(row[i] for row in rows)
    return {key: _floats(values) or values for key, values in fields.items()}


def stdout_fields(text: str, stream: str = "stdout") -> dict:
    """Numbers of a text stream, one field per line template and position; a field is named by
    the stream, the line with its numbers replaced by '#', and the two words of that template
    just before the number (so a number before it, which may move, is '#' there too)."""
    fields = {}
    for line in text.splitlines():
        template = _NUMBER.sub("#", line)
        for k, match in enumerate(_NUMBER.finditer(line)):
            before = " ".join(_NUMBER.sub("#", line[:match.start()]).split()[-2:])
            fields.setdefault(f"{stream}: {template} [{k}: {before}]", []).append(match.group())
    return {key: _floats(values) or values for key, values in fields.items()}


def _floats(values):
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        return None


def moves(base: dict, head: dict) -> dict:
    """The largest move of each numeric field present on both sides with as many values; a
    text field that differs, a field on one side only or of another length is listed too."""
    out = {}
    for key in sorted(set(base) & set(head)):
        a, b = base[key], head[key]
        if a != b and not all(isinstance(v, float) for v in a + b):
            out[key] = {"kind": "text", "move": None, "values": [a, b]}
            continue
        if len(a) != len(b):
            out[key] = {"kind": "shape", "move": None, "values": [len(a), len(b)]}
            continue
        absolute = bool(_ABSOLUTE.search(key))
        worst = 0.0
        for x, y in zip(a, b):
            if x == y or (x != x and y != y):
                continue
            scale = 1.0 if absolute else max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale else float("inf"))
        if worst:
            out[key] = {"kind": "abs" if absolute else "rel", "move": worst}
    for key in sorted(set(base) ^ set(head)):
        out[key] = {"kind": "missing", "move": None, "values": [key in base, key in head]}
    return out


def entry(base: dict, head: dict) -> dict:
    """One run on both trees, each a dict of parts (exit code, text streams, output file): the
    parts that differ and, where any does, the moves of their fields."""
    differ = [part for part in base if base[part] != head[part]]
    out = {"code": [base["code"], head["code"]], "differ": differ, "same": not differ}
    if differ:
        out["moves"] = {}
        for part in [part for part in differ if part != "code"]:  # an exit code has no fields
            parse = output_fields if part == "output" else lambda text: stdout_fields(text, part)
            out["moves"].update(moves(parse(base[part]), parse(head[part])))
    return out


def compare(base_tree: Path, head_tree: Path, threads: str) -> dict:
    """An entry per command, and one for the acceptance lines."""
    trees, report = (base_tree, head_tree), {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            report[name] = entry(*(run(tree, name, Path(tmp), threads) for tree in trees))
    report[ACCEPTANCE] = entry(*(acceptance(tree, threads) for tree in trees))
    return report


def _digests(tree: Path) -> dict:
    path = tree / "tests" / "golden_digests.json"
    return json.loads(path.read_text(encoding="utf-8"))["digests"] if path.exists() else {}


def rerecorded(base_tree: Path, head_tree: Path) -> list:
    """The golden commands whose digests the head tree re-records: the base tree's names (none
    without a golden_digests.json) with another digest, or none, in the head tree's."""
    old, new = _digests(base_tree), _digests(head_tree)
    return sorted(name for name in old if new.get(name) != old[name])


def verdict(report: dict, moved: list) -> int:
    """1 when an entry differs and no digest is re-recorded (`moved` is empty), or when a golden
    command differs whose digest is not re-recorded; else 0."""
    differ = {name for name, entry in report.items() if not entry["same"]}
    if moved:
        differ &= set(test_golden.COMMANDS) - set(moved)
    return 1 if differ else 0


def src_lines(tree: Path) -> int:
    """Lines of `tree`'s src/sphere_strichartz/*.py, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "sphere_strichartz").glob("*.py"))


def table(report: dict, moved: list, src: dict) -> str:
    lines = []
    for name, entry in report.items():
        if entry["same"]:
            continue
        what = ", ".join("exit code" if part == "code" else part for part in entry["differ"])
        lines.append(f"{name}: {what} differ (exit {entry['code'][0]} -> {entry['code'][1]})")
        for key, move in entry["moves"].items():
            value = f"{move['move']:.3g}" if move["move"] is not None else move["values"]
            lines.append(f"    {move['kind']:>7}  {value}  {key}")
    same = sum(entry["same"] for name, entry in report.items() if name != ACCEPTANCE)
    lines.append(f"{same} of {len(COMMANDS)} commands identical; {len(COMMANDS) - same} differ; "
                 f"{ACCEPTANCE} lines {'identical' if report[ACCEPTANCE]['same'] else 'differ'}; "
                 f"digests re-recorded: {', '.join(moved) or 'none'}")
    head, base = src["head"], src["base"]
    lines.append(f"src/ lines: {head} (base {base}, delta {head - base})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--head", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--threads", default="1", help="BLAS threads of each child process")
    parser.add_argument("--report", type=Path, default=Path("compare_outputs.json"),
                        help="JSON report file")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    report, moved = compare(base, head, args.threads), rerecorded(base, head)
    code, src = verdict(report, moved), {"base": src_lines(base), "head": src_lines(head)}
    args.report.write_text(json.dumps({"threads": args.threads, "base": str(args.base),
                                       "head": str(args.head), "rerecorded": moved,
                                       "exit": code, "src_lines": src, "commands": report},
                                      indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(table(report, moved, src), f"exit {code}", sep="\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
