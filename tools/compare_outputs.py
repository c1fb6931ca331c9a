"""Moved-output report: run the same CLI commands on two source trees and say what moved.

    python3 tools/compare_outputs.py --base DIR --head DIR [--threads 1] [--report FILE]

Each command runs in a child process per tree (PYTHONPATH=TREE/src, the BLAS thread count
fixed by --threads) at --seed 5 with an --output file.  The output file, stdout and the exit
code are compared.  For every command whose output file or stdout differs, the table gives
the largest move of each numeric field: relative for values, absolute for increments,
residuals, drifts, defects and errors (a defect of 0 against 1e-16 has no useful relative
move).  The whole comparison goes to one JSON report (--report).

The command list is tests/test_golden.py's COMMANDS, imported from this tree, plus the
Picard solves and q = 4 free-path ratios of EXTRA.  Needs only the standard library and numpy
(which the imported test module loads).
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
}
COMMANDS = {**test_golden.COMMANDS, **EXTRA}

# fields whose moves are absolute: near zero by design, so a relative move says nothing
_ABSOLUTE = re.compile(r"increment|residual|drift|defect|error|round-trip|parseval|unitarity|"
                       r"periodicity", re.IGNORECASE)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def run(tree: Path, name: str, tmp: Path, threads: str) -> dict:
    """COMMANDS[name] on `tree` in a child process: its exit code, stdout and output bytes."""
    potential = tmp / "potential.json"
    potential.write_text(json.dumps(test_golden.POTENTIAL), encoding="utf-8")
    output = tmp / f"{name}.out"
    output.unlink(missing_ok=True)
    argv = [arg.format(potential=potential) for arg in COMMANDS[name]]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": threads,
           "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-m", "sphere_strichartz.cli", *argv, "--seed", "5",
                           "--output", str(output)], env=env, cwd=tmp, capture_output=True,
                          text=True)
    data = output.read_text(encoding="utf-8") if output.exists() else None
    return {"code": proc.returncode, "stdout": proc.stdout, "output": data}


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


def stdout_fields(text: str) -> dict:
    """Numbers of stdout, one field per line template and position; a field is named by the
    line with its numbers replaced by '#', and the words just before the number."""
    fields = {}
    for line in text.splitlines():
        template = _NUMBER.sub("#", line)
        for k, match in enumerate(_NUMBER.finditer(line)):
            before = " ".join(line[:match.start()].split()[-2:])
            fields.setdefault(f"stdout: {template} [{k}: {before}]", []).append(match.group())
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


def compare(base_tree: Path, head_tree: Path, threads: str) -> dict:
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            b, h = (run(tree, name, Path(tmp), threads) for tree in (base_tree, head_tree))
            entry = {"argv": COMMANDS[name], "code": [b["code"], h["code"]],
                     "output_same": b["output"] == h["output"],
                     "stdout_same": b["stdout"] == h["stdout"]}
            entry["same"] = entry["output_same"] and entry["stdout_same"] and b["code"] == h["code"]
            if not entry["same"]:
                entry["moves"] = {**moves(output_fields(b["output"]), output_fields(h["output"])),
                                  **moves(stdout_fields(b["stdout"]), stdout_fields(h["stdout"]))}
            report[name] = entry
    return report


def table(report: dict) -> str:
    lines = []
    for name, entry in report.items():
        if entry["same"]:
            continue
        what = [part for part, same in (("output", entry["output_same"]),
                                        ("stdout", entry["stdout_same"]),
                                        ("exit code", entry["code"][0] == entry["code"][1]))
                if not same]
        lines.append(f"{name}: {', '.join(what)} differ (exit {entry['code'][0]} -> "
                     f"{entry['code'][1]})")
        for key, move in entry["moves"].items():
            value = f"{move['move']:.3g}" if move["move"] is not None else move["values"]
            lines.append(f"    {move['kind']:>7}  {value}  {key}")
    same = sum(entry["same"] for entry in report.values())
    lines.append(f"{same} of {len(report)} commands identical; "
                 f"{len(report) - same} differ")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--head", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--threads", default="1", help="BLAS threads of each child process")
    parser.add_argument("--report", type=Path, default=Path("compare_outputs.json"),
                        help="JSON report file")
    args = parser.parse_args(argv)
    report = compare(args.base.resolve(), args.head.resolve(), args.threads)
    args.report.write_text(json.dumps({"threads": args.threads, "base": str(args.base),
                                       "head": str(args.head), "commands": report},
                                      indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(table(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
