"""tools/compare_outputs.py's parsers, moves, re-recorded digests and verdict, on synthetic
inputs: no child process runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


@pytest.fixture(autouse=True)
def no_child_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def test_output_fields_of_csv_and_json():
    csv = "n,ratio,family\n16,0.5,random\n32,0.25,random\n"
    assert tool.output_fields(csv) == {"n": [16.0, 32.0], "ratio": [0.5, 0.25],
                                       "family": ["random", "random"]}
    doc = {"columns": ["N", "ratio"], "rows": [[6, "1.5"]], "summary": {"slope": 0.125}}
    assert tool.output_fields(json.dumps(doc)) == {"slope": [0.125], "N": [6.0],
                                                   "ratio": [1.5]}
    assert tool.output_fields(None) == {} and tool.output_fields("") == {}


def test_stdout_fields_name_each_number_by_its_line_and_words():
    text = "ratio 1.5e-3 at N = 16\nPASS  round-trip 2e-15 (tol 1e-12)\n"
    assert tool.stdout_fields(text) == {
        "stdout: ratio # at N = # [0: ratio]": [1.5e-3],
        "stdout: ratio # at N = # [1: N =]": [16.0],
        "stdout: PASS  round-trip # (tol #) [0: PASS round-trip]": [2e-15],
        "stdout: PASS  round-trip # (tol #) [1: # (tol]": [1e-12],
    }
    # a number's move renames no later field: each is named by the template's words
    moved = tool.stdout_fields(text.replace("2e-15", "3e-15"))
    assert list(moved) == list(tool.stdout_fields(text))
    assert list(tool.stdout_fields("x 1\n", "stderr")) == ["stderr: x # [0: x]"]


def test_moves_of_each_kind():
    base = {"ratio": [1.0, 2.0], "increment": [0.0], "family": ["a"], "n": [1.0, 2.0],
            "gone": [1.0], "same": [3.0]}
    head = {"ratio": [1.0, 2.5], "increment": [1e-17], "family": ["b"], "n": [1.0],
            "new": [1.0], "same": [3.0]}
    assert tool.moves(base, head) == {
        "ratio": {"kind": "rel", "move": 0.2},
        "increment": {"kind": "abs", "move": 1e-17},
        "family": {"kind": "text", "move": None, "values": [["a"], ["b"]]},
        "n": {"kind": "shape", "move": None, "values": [2, 1]},
        "gone": {"kind": "missing", "move": None, "values": [True, False]},
        "new": {"kind": "missing", "move": None, "values": [False, True]},
    }
    assert tool.moves({"x": [float("nan")]}, {"x": [float("nan")]}) == {}


def test_entry_lists_the_parts_that_differ_and_their_moves():
    base = {"code": 0, "stdout": "ratio 1.0\n", "stderr": "", "output": "n\n1\n"}
    assert tool.entry(base, dict(base)) == {"code": [0, 0], "differ": [], "same": True}
    head = {**base, "code": 2, "stderr": "numerical error: 3\n"}
    got = tool.entry(base, head)
    assert got["differ"] == ["code", "stderr"] and not got["same"]
    assert got["moves"] == {"stderr: numerical error: # [0: numerical error:]":
                            {"kind": "missing", "move": None, "values": [False, True]}}


def _tree(root: Path, digests: dict | None, src: dict | None = None) -> Path:
    (root / "tests").mkdir(parents=True)
    if digests is not None:
        (root / "tests" / "golden_digests.json").write_text(
            json.dumps({"digests": digests}), encoding="utf-8")
    if src is not None:  # {file name: text} under src/sphere_strichartz
        (root / "src" / "sphere_strichartz").mkdir(parents=True)
        for name, text in src.items():
            (root / "src" / "sphere_strichartz" / name).write_text(text, encoding="utf-8")
    return root


def test_rerecorded_digests(tmp_path):
    base = _tree(tmp_path / "base", {"kappa": "a", "sweep-d2": "b", "strichartz": "c"})
    head = _tree(tmp_path / "head", {"kappa": "a", "sweep-d2": "B", "sharpness": "d"})
    # another digest, or none (a name removed); a name only the head records is not one
    assert tool.rerecorded(base, head) == ["strichartz", "sweep-d2"]
    assert tool.rerecorded(base, base) == []
    assert tool.rerecorded(_tree(tmp_path / "bare", None), head) == []


def test_src_lines_and_their_delta(tmp_path):
    # newlines of src/sphere_strichartz/*.py, as wc -l counts them: a last line without one is
    # not counted, and neither is a file of another suffix or directory
    base = _tree(tmp_path / "base", {}, {"__init__.py": "x = 1\n", "grids.py": "a\nb\nc\n",
                                         "notes.txt": "1\n2\n"})
    head = _tree(tmp_path / "head", {}, {"__init__.py": "x = 1\n", "grids.py": "a\nb",
                                         "norms.py": "\n\n\n"})
    (head / "src" / "other.py").write_text("1\n2\n", encoding="utf-8")
    src = {"base": tool.src_lines(base), "head": tool.src_lines(head)}
    assert src == {"base": 4, "head": 5}
    assert tool.src_lines(_tree(tmp_path / "bare", None)) == 0
    assert tool.table(_report(), [], src).splitlines()[-1] == "src/ lines: 5 (base 4, delta 1)"


def _report(*moved):
    """A synthetic report: every command and the acceptance entry the same, but `moved`."""
    return {name: {"code": [0, 0], "differ": ["stdout"] * (name in moved),
                   "same": name not in moved}
            for name in [*tool.COMMANDS, tool.ACCEPTANCE]}


def test_verdict():
    golden, extra = sorted(tool.test_golden.COMMANDS)[:2], sorted(tool.EXTRA)[0]
    assert tool.verdict(_report(), []) == 0
    for name in (golden[0], extra, tool.ACCEPTANCE):  # anything moved, nothing re-recorded
        assert tool.verdict(_report(name), []) == 1
    # a re-recording means to move bytes: its own commands, the extras and acceptance may move
    assert tool.verdict(_report(golden[0]), [golden[0]]) == 0
    assert tool.verdict(_report(golden[0], extra, tool.ACCEPTANCE), [golden[0]]) == 0
    assert tool.verdict(_report(), [golden[0]]) == 0
    # but not another golden command whose digest is not re-recorded
    assert tool.verdict(_report(*golden), [golden[0]]) == 1
    assert tool.verdict(_report(*golden), golden) == 0
