import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sphere_strichartz
from sphere_strichartz import cli, experiments, norms, spectral
from sphere_strichartz.cli import run
from sphere_strichartz.grids import CoefficientTable, grid_for
from sphere_strichartz.spectral import SpaceTimeField

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)  # its --output parser
_spec.loader.exec_module(compare_outputs)


def test_kappa_prints_value_and_branch(capsys):
    assert run(["kappa", "--d", "2", "--p", "8"]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out
    assert "supercritical" in out
    assert "p_c = 6" in out


def test_kappa_with_q(capsys):
    assert run(["kappa", "--d", "2", "--p", "4", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "kappa_pq = 0.375" in out


def test_validation_errors_exit_1(capsys):
    assert run(["kappa", "--d", "2", "--p", "1.5"]) == 1
    assert run(["kappa", "--d", "0", "--p", "4"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["kappa", "--p", "4", "--bogus-flag", "1"]) == 1
    capsys.readouterr()
    # a:b:k is the one way to give a degree count
    for command in ("sweep", "sharpness"):
        assert run([command, "--p", "4", "--n", "16:64", "--count", "5"]) == 1
        assert "error: unrecognized arguments: --count 5" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["inf", "INF", "Infinity"])
def test_kappa_reads_p_with_float(p, capsys):
    # Python's float reads every exponent: inf in any case, or infinity, is p = inf
    assert run(["kappa", "--d", "2", "--p", p]) == 0
    assert capsys.readouterr().out == "kappa_p = 0.5  (supercritical branch, p_c = 6)\n"


def test_missing_required_flag_exit_1():
    code, out, err = _run_captured(["sweep", "--n", "4:8:3"])
    assert (code, out) == (1, "") and err == "error: --p is required\n", err


_INVALID_FAMILY = "error: argument --family: invalid choice"


@pytest.mark.parametrize("argv, first", [
    (["kappa", "--d", "nan", "--p", "4"], "error: argument --d: invalid int value: 'nan'\n"),
    (["strichartz", "--N", "6", "--p", "4", "--format", "xml"],
     "error: argument --format: invalid choice"),
    # one name per family: zonal, hw and random
    (["sweep", "--p", "4", "--family", "highest-weight"], _INVALID_FAMILY),
    (["sweep", "--p", "4", "--family", "zonal-kernel"], _INVALID_FAMILY),
    (["strichartz", "--N", "6", "--p", "4", "--family", "random-eigenspace"], _INVALID_FAMILY),
    # exponents are read by float, which knows inf and infinity but not oo
    (["kappa", "--p", "oo"], "error: could not convert string to float: 'oo'\n"),
], ids=["kappa-d-nan", "strichartz-format-xml", "sweep-family-highest-weight",
        "sweep-family-zonal-kernel", "strichartz-family-random-eigenspace", "kappa-p-oo"])
def test_unparsable_flag_value_exit_1_with_error_first(argv, first):
    # a subcommand's parser raises, not exits: `error: argument ...` first, no usage: line
    code, out, err = _run_captured(argv)
    assert (code, out) == (1, "") and err.startswith(first), err
    assert "Traceback" not in err


def test_resource_cap_exit_1(monkeypatch, capsys):
    monkeypatch.setenv("SPHERE_STRICHARTZ_MAX_N", "20")
    assert run(["identity-check", "--N", "32", "--trials", "1"]) == 1
    capsys.readouterr()


def test_identity_check_passes(capsys):
    assert run(["identity-check", "--d", "2", "--N", "8", "--seed", "7",
                "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_identity_check_sums_each_trial_once(tmp_path, monkeypatch, capsys):
    # one set of sampled L^2_t sums per trial serves every p: 3 _time_sums calls for 3 trials
    # where a per-p mixed_norm loop makes 12, with that loop's stdout and --output bytes
    calls, time_sums = [], norms._time_sums
    monkeypatch.setattr(norms, "_time_sums",
                        lambda u, q, *args: calls.append(q) or time_sums(u, q, *args))
    out = tmp_path / "identity.csv"
    assert run(["identity-check", "--N", "12", "--trials", "3", "--p-list", "1,2,4,inf",
                "--seed", "3", "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert calls == [2.0] * 3
    monkeypatch.undo()
    rng, grid, tg = cli._rng(3), grid_for(12, 2, 2.0), spectral.nyquist_time_grid(12, 2)
    lines, worst = ["trial,p,sampled,spectral,rel_error"], 0.0
    for trial in range(3):
        f = spectral.random_field(12, 2, rng)
        u, prof = spectral.synthesize_history(f, tg, grid), norms.l2t_profile_exact(f, grid)
        for p in (1.0, 2.0, 4.0, math.inf):
            sampled, exact = norms.mixed_norm(u, p, 2.0), norms.lp_norm(prof, grid, p)
            rel = abs(sampled - exact) / exact
            worst = max(worst, rel)
            row = [trial, "inf" if p == math.inf else p, sampled, exact, rel]
            lines.append(",".join(cli._fmt(v) for v in row))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert stdout == (f"max relative error over 3 trials x p in {{1,2,4,inf}}: "
                      f"{cli._fmt(worst)}  (tolerance {cli._fmt(1e-10)})\n")


def test_identity_check_tolerance_breach_exit_2(capsys):
    assert run(["identity-check", "--N", "8", "--trials", "1",
                "--tol", "1e-18"]) == 2
    capsys.readouterr()


def test_sweep_csv_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--d", "2", "--p", "inf", "--family", "zonal",
            "--n", "16:64:5", "--seed", "3"]
    assert run(argv + ["--output", str(out1)]) == 0
    assert run(argv + ["--output", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "n,ratio,p,q,s,d,family"
    assert len(lines) == 6


def test_sweep_a_b_runs_default_degrees(tmp_path, capsys):
    # 'a:b' is 12 log-spaced degrees, so the default window 16:256 is DEFAULT_DEGREES
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--p", "inf", "--n", "16:256", "--output", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().strip().split("\n")[1:]
    assert tuple(int(row.split(",")[0]) for row in rows) == experiments.DEFAULT_DEGREES


def test_sweep_rows_rederivable(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--d", "2", "--p", "inf", "--family", "zonal",
                "--n", "8,16,32", "--output", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().strip().split("\n")[1:]
    from sphere_strichartz.experiments import field_lp_norm, make_family

    for row in rows:
        vals = row.split(",")
        n, ratio = int(vals[0]), float(vals[1])
        f = make_family("zonal-kernel", n, 2)
        assert ratio == pytest.approx(field_lp_norm(f, math.inf), rel=1e-15)


def test_sweep_json_format(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--d", "2", "--p", "4", "--family", "hw",
                "--n", "8,16,32", "--format", "json", "--output", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["columns"][0] == "n"
    assert "slope" in data["summary"]


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "d": 2, "p": "8"}))
    assert run(["kappa", "--config", str(cfg)]) == 0
    assert "0.25" in capsys.readouterr().out
    # explicit flag beats the config value, after --config or before it
    assert run(["kappa", "--config", str(cfg), "--p", "inf"]) == 0
    assert "0.5" in capsys.readouterr().out
    assert run(["kappa", "--p", "inf", "--config", str(cfg)]) == 0
    assert "0.5" in capsys.readouterr().out


def test_config_file_version_and_keys_checked(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 99, "p": "8"}))
    assert run(["kappa", "--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"version": 1, "wat": 3}))
    assert run(["kappa", "--p", "4", "--config", str(unknown)]) == 1
    assert run(["kappa", "--p", "4", "--config", str(tmp_path / "missing.json")]) == 1
    not_object = tmp_path / "list.json"
    not_object.write_text(json.dumps([1, 2]))
    assert run(["kappa", "--p", "4", "--config", str(not_object)]) == 1
    capsys.readouterr()


def test_config_flag_last_without_value_exit_1(capsys):
    assert run(["kappa", "--p", "4", "--config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--config" in err


def test_config_equals_form_is_honoured(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "d": 2, "p": "8"}))
    assert run(["kappa", f"--config={cfg}"]) == 0
    assert "kappa_p = 0.25" in capsys.readouterr().out
    assert run(["kappa", f"--config={cfg}", "--p", "inf"]) == 0
    assert "kappa_p = 0.5" in capsys.readouterr().out


@pytest.mark.parametrize("argv, values", [
    (["strichartz", "--N", "6", "--p", "4"], {"s": None}),
    (["kappa", "--p", "4"], {"q": True}),
    (["identity-check", "--N", "8"], {"p_list": [2, 4]}),
    (["kappa", "--p", "4"], {"q": {"value": 4}}),
    (["kappa", "--p", "4"], {"config": "other.json"}),
    (["strichartz", "--p", "4"], {"N": 3.5}),
    (["kappa", "--p", "4"], {"seed": 1.5}),
    (["sweep", "--p", "4", "--n", "4,8,16"], {"family": "bogus"}),
    (["kappa", "--p", "4"], {"format": "xml"}),
    (["strichartz", "--N", "6", "--p", "4"], {"format": "xml"}),
], ids=["null", "boolean", "list", "object", "config-key", "float-N", "float-seed",
        "bad-family", "bad-format", "strichartz-bad-format"])
def test_config_values_parsed_as_flags_or_exit_1(argv, values, tmp_path, capsys):
    # each value passes its flag's type= and choices=; null, booleans, lists, objects and
    # a "config" key are refused: exit 1 with an error line, no traceback and no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, **values}))
    out = tmp_path / "out.csv"
    assert run([*argv, "--config", str(cfg), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_config_numbers_equal_the_same_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    outs = [tmp_path / "flags.csv", tmp_path / "config.csv"]
    for values in ({"p": 4, "q": 4}, {"p": 4}):
        cfg.write_text(json.dumps({"version": 1, **values}))
        flags = [arg for key, value in values.items() for arg in (f"--{key}", str(value))]
        assert run(["kappa", *flags, "--output", str(outs[0])]) == 0
        from_flags = capsys.readouterr()
        assert run(["kappa", "--config", str(cfg), "--output", str(outs[1])]) == 0
        assert capsys.readouterr() == from_flags
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_identity_check_zero_trials_exit_1(capsys):
    assert run(["identity-check", "--N", "8", "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "max relative error" not in captured.out


def test_config_negative_trials_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "trials": -3}))
    assert run(["identity-check", "--N", "8", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["strichartz", "--N", "6", "--p", "4", "--s", "nan"],
    ["strichartz", "--N", "6", "--p", "4", "--s", "inf"],
    ["strichartz", "--N", "6", "--p", "4", "--q", "nan"],
    ["strichartz", "--N", "6", "--p", "4", "--q", "inf"],
    ["sharpness", "--p", "inf", "--s", "nan", "--n", "4,8,16"],
    ["solve-potential", "--potential", "unused.json", "--s", "nan"],
    ["identity-check", "--N", "8", "--trials", "1", "--tol", "nan"],
    ["solve-potential", "--potential", "unused.json", "--N", "4", "--tol", "nan"],
    ["solve-potential", "--potential", "unused.json", "--tol", "inf"],
])
def test_non_finite_flag_exit_1(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "must be finite" in captured.err
    assert "ratio =" not in captured.out


def test_non_finite_computed_ratio_exit_2(tmp_path, capsys):
    # |u|^q overflows for q = 1e308 wherever |u| > 1, so the ratio is inf
    out = tmp_path / "r.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["strichartz", "--N", "16", "--p", "4", "--q", "1e308", "--s", "0.5",
                    "--output", str(out)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_row_exit_2_before_writing(monkeypatch, tmp_path):
    # a NaN result never reaches --output: the row check raises before the file is opened
    monkeypatch.setattr(experiments, "strichartz_ratio", lambda *args: math.nan)
    out = tmp_path / "r.csv"
    code, stdout, err = _run_captured(["strichartz", "--N", "4", "--p", "4",
                                       "--output", str(out)])
    assert code == 2 and err.startswith("numerical error: non-finite result nan"), err
    assert not out.exists() and "ratio =" not in stdout


def test_vacuous_power_sum_exit_2(tmp_path, capsys):
    # at N = 8 every |u| < 1, so |u|^q underflows to 0 for q = 1e308: not a ratio of 0
    out = tmp_path / "r.csv"
    with np.errstate(under="ignore"):
        code = run(["strichartz", "--p", "4", "--q", "1e308", "--N", "8",
                    "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "vacuous" in captured.err
    assert "ratio =" not in captured.out
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # no RuntimeWarning on stderr either
def test_lp_norm_out_of_float_range_exit_2(tmp_path, capsys):
    # |profile|^1e308 overflows where the profile exceeds 1 and underflows to 0 elsewhere, so
    # the L^1e308 norms are inf or 0: a numerical error, not a division by zero
    out = tmp_path / "r.csv"
    code = run(["identity-check", "--N", "4", "--p-list", "1e308", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "numerical error: non-finite or vacuous L^1e+308 norm\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # no RuntimeWarning on stderr either
def test_overflowing_sobolev_weight_exit_2(tmp_path, capsys):
    # (1 + n)^300 overflows, so the Sobolev norm is inf: not a ratio of 0
    out = tmp_path / "r.csv"
    code = run(["strichartz", "--N", "40", "--p", "4", "--s", "300", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "numerical error: non-finite or vacuous Sobolev norm at s = 300\n"
    assert "ratio =" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("d", ["2", "3"])
def test_negative_band_limit_exit_1(d, capsys):
    assert run(["strichartz", "--d", d, "--N", "-1", "--p", "4"]) == 1
    assert capsys.readouterr().err == "error: band limit must be >= 0, got -1\n"


def test_overflowing_grid_size_exit_1(capsys):
    # the grid band p/2 * N overflows to an infinite size
    assert run(["sweep", "--d", "2", "--p", "1e308", "--family", "zonal",
                "--n", "8,16,32"]) == 1
    assert capsys.readouterr().err.startswith("error:")


_OVERSAMPLE = "oversample must be a finite number > 0, got "


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--p", "4", "--oversample", "nan"], _OVERSAMPLE + "nan"),
    (["sweep", "--p", "4", "--oversample", "inf"], _OVERSAMPLE + "inf"),
    (["sweep", "--p", "4", "--oversample", "0"], _OVERSAMPLE + "0.0"),
    (["sweep", "--p", "4", "--oversample", "-1"], _OVERSAMPLE + "-1.0"),
    (["sweep", "--p", "1e308"], "p = 1e+308 needs a grid band of 5e+307 * 256, above the cap 1024"),
    (["strichartz", "--N", "4", "--p", "1e308"],
     "p = 1e+308 needs a grid band of 5e+307 * 4, above the cap 1024"),
    # finite grid bands above the cap, named by p and the cap, not by a 301-digit band
    (["sweep", "--p", "1e300"], "p = 1e+300 needs a grid band of 5e+299 * 256, above the cap 1024"),
    (["sweep", "--p", "4", "--n", "600:1100:3"],
     "p = 4 needs a grid band of 2 * 1100, above the cap 1024"),
    (["sweep", "--d", "1", "--p", "4"], "need d >= 2, got 1"),
    # the log-log fit's count, before the first witness
    (["sweep", "--p", "4", "--family", "random", "--n", "400,512"], "need at least 3 points, got 2"),
    (["sharpness", "--p", "4", "--n", "384,512"], "need at least 3 points, got 2"),
    # a degree spec is a:b or a:b:k; a fourth field is refused, not ignored
    (["sweep", "--p", "4", "--n", "16:64:4:junk"],
     "degree spec '16:64:4:junk' has more than three ':' fields"),
    (["sharpness", "--p", "4", "--n", "16:64:4:5"],
     "degree spec '16:64:4:5' has more than three ':' fields"),
], ids=["oversample-nan", "oversample-inf", "oversample-0", "oversample-negative", "sweep-p",
        "strichartz-p", "sweep-p-above-cap", "sweep-n-above-cap", "sweep-d1", "sweep-2-degrees",
        "sharpness-2-degrees", "sweep-n-four-fields", "sharpness-n-four-fields"])
def test_unformable_grid_flag_exit_1_before_any_transform(argv, message, monkeypatch, capsys):
    # the value is named, and the run stops before it builds a grid or a witness
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("grid_for", "make_family", "sobolev_norm"):
        monkeypatch.setattr(f"sphere_strichartz.experiments.{name}", no_work)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, p", [
    (["strichartz", "--N", "40", "--p", "0.5", "--s", "0.3"], "0.5"),
    (["strichartz", "--N", "40", "--p", "nan", "--s", "0.3"], "nan"),
    (["identity-check", "--N", "40", "--trials", "3", "--p-list", "4,0.5"], "0.5"),
    (["strichartz", "--N", "8", "--p", "0.5", "--s", "0.3"], "0.5"),
], ids=["strichartz-p-0.5", "strichartz-p-nan", "identity-check-p-list", "strichartz-n8-p-0.5"])
def test_p_below_1_exit_1_before_any_synthesis(argv, p, monkeypatch, capsys):
    # the outer exponent's rule is checked before the first sample is made
    def no_work(*args, **kwargs):
        raise AssertionError("synthesis started")

    for name in ("grids._synthesize", "grids._degree_synthesis", "spectral._synthesize",
                 "spectral._degree_synthesis"):
        monkeypatch.setattr(f"sphere_strichartz.{name}", no_work)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: p must be >= 1 or inf, got {p}\n"
    assert captured.out == ""


def _refuse_memory(self):
    raise MemoryError("Unable to allocate 3.0 GiB for an array with shape (1024, 180602) "
                      "and data type complex128")


def test_out_of_memory_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(SpaceTimeField, "iter_space_chunks", _refuse_memory)
    assert run(["strichartz", "--N", "6", "--p", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 3.0 GiB ")
    assert "Traceback" not in err


def test_strichartz_q4_builds_no_phase_table(monkeypatch):
    # on the default grid (M > 2 lambda_N) a q = 4 ratio comes from resonant degree pairs: it
    # needs no iter_space_chunks, where the phase table W is built, and equals the sampled ratio
    argv = ["strichartz", "--N", "6", "--p", "4", "--q", "4", "--seed", "5"]
    with monkeypatch.context() as m:
        m.setattr(norms, "_resonant_l4_sums", lambda u: norms._time_power_sums(u, 4.0))
        code, sampled, _ = _run_captured(argv)
    assert code == 0
    monkeypatch.setattr(SpaceTimeField, "iter_space_chunks", _refuse_memory)
    code, out, err = _run_captured(argv)
    assert code == 0 and err == "", err
    got, want = (float(re.search(r"ratio = (\S+)", text).group(1)) for text in (out, sampled))
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("scale", [1e80, 1e-90])
def test_q4_power_sums_out_of_float_range_exit_2(scale, monkeypatch, tmp_path):
    # |u|^4 overflows at 1e80 and underflows to a vacuous 0 at 1e-90: exit 2, no warning, no row
    monkeypatch.setattr(cli, "random_field",
                        lambda N, d, rng: spectral.random_field(N, d, rng) * scale)
    out = tmp_path / "r.csv"
    code, stdout, err = _run_captured(["strichartz", "--N", "6", "--p", "4", "--q", "4",
                                       "--output", str(out)])
    assert code == 2, err
    assert err == "numerical error: non-finite or vacuous time power sums of |u|^4\n", err
    assert "ratio =" not in stdout and not out.exists()


def test_strichartz_command(capsys):
    assert run(["strichartz", "--d", "2", "--N", "6", "--p", "4", "--q", "4",
                "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "ratio =" in out
    assert "s=0.375" in out


def test_sharpness_command(tmp_path, capsys):
    out = tmp_path / "sharp.csv"
    assert run(["sharpness", "--d", "2", "--p", "inf", "--s", "0.5",
                "--n", "16:64:5", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "growth slope" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,ratio,p,q,s,d,family"
    assert len(lines) == 11  # 5 degrees x 2 families + header


def test_sharpness_s_auto_equals_no_s(tmp_path, capsys):
    # --s auto is kappa_{p,2}, the default, as on strichartz and solve-potential
    results = []
    for flags in ([], ["--s", "auto"]):
        out = tmp_path / f"sharp{len(flags)}.csv"
        assert run(["sharpness", "--p", "inf", "--n", "16:32:3", "--output", str(out),
                    *flags]) == 0
        results.append((out.read_bytes(), capsys.readouterr()))
    assert results[0] == results[1]


def test_solve_potential_roundtrip(tmp_path, capsys):
    pot_file = tmp_path / "pot.json"
    pot_file.write_text(json.dumps({
        "terms": [{
            "time_coeffs": [{"freq": 1, "re": 0.01, "im": 0.0},
                            {"freq": -1, "re": 0.01, "im": 0.0}],
            "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0, "im": 0.0}],
        }]
    }))
    out = tmp_path / "report.json"
    assert run(["solve-potential", "--potential", str(pot_file), "--N", "4",
                "--p", "4", "--seed", "2", "--format", "json",
                "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "converged" in text
    report = json.loads(out.read_text())
    assert float(report["summary"]["residual"]) <= 1e-6


def test_solve_potential_divergence_exit_2(tmp_path, capsys):
    pot_file = tmp_path / "strong.json"
    pot_file.write_text(json.dumps({
        "terms": [{
            "time_coeffs": [{"freq": 0, "re": 90.0, "im": 0.0}],
            "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0, "im": 0.0}],
        }]
    }))
    assert run(["solve-potential", "--potential", str(pot_file), "--N", "4",
                "--p", "4", "--seed", "2", "--max-iter", "10"]) == 2
    capsys.readouterr()


def test_solve_potential_no_convergence_exit_2(tmp_path, capsys):
    # README's potential needs more than one iterate to reach tol = 1e-8
    pot_file = tmp_path / "pot.json"
    pot_file.write_text(json.dumps({"terms": [
        {"time_coeffs": [{"freq": 1, "re": 0.015, "im": 0.0},
                         {"freq": -1, "re": 0.015, "im": 0.0}],
         "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0, "im": 0.0}]}]}))
    out = tmp_path / "div.csv"
    assert run(["solve-potential", "--potential", str(pot_file), "--N", "6",
                "--max-iter", "1", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("divergence: no convergence")
    assert "Traceback" not in captured.err and "converged" not in captured.out
    assert not out.exists()


_TERM = {"time_coeffs": [{"freq": 0, "re": 0.01}],
         "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0}]}


@pytest.mark.parametrize("term,key", [
    ({"freqs": [1, -1], "spatial_coeffs": _TERM["spatial_coeffs"]}, "time_coeffs"),
    ({"time_coeffs": _TERM["time_coeffs"]}, "spatial_coeffs"),
    ({**_TERM, "spatial_coeffs": [{"m": 0, "re": 1.0}]}, "n"),
    ({**_TERM, "spatial_coeffs": [{"n": 1, "re": 1.0}]}, "m"),
    ({**_TERM, "time_coeffs": [{"freq": 0}]}, "re"),
])
def test_solve_potential_missing_key_exit_1(term, key, tmp_path, capsys):
    pot_file = tmp_path / "pot.json"
    pot_file.write_text(json.dumps({"terms": [term]}))
    assert run(["solve-potential", "--potential", str(pot_file), "--N", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert "Traceback" not in err


def _entry_with(key, **fields):
    """_TERM with fields replaced in its first `key` entry."""
    return {**_TERM, key: [{**_TERM[key][0], **fields}]}


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"terms": [1]}',
    '{"terms": {"a": 1}}',
    json.dumps({"terms": [{**_TERM, "time_coeffs": {"a": 1}}]}),
    json.dumps({"terms": [{**_TERM, "spatial_coeffs": [3]}]}),
    json.dumps({"terms": [_entry_with("time_coeffs", re=None)]}),
    json.dumps({"terms": [_entry_with("spatial_coeffs", im=None)]}),
    json.dumps({"terms": [_entry_with("time_coeffs", freq=1.5)]}),
    json.dumps({"terms": [_entry_with("time_coeffs", freq=True)]}),
    json.dumps({"terms": [_entry_with("time_coeffs", freq="1")]}),
    json.dumps({"terms": [_entry_with("time_coeffs", freq=1e300)]}),
    json.dumps({"terms": [_entry_with("spatial_coeffs", n=1.7)]}),
    json.dumps({"terms": [_entry_with("spatial_coeffs", m=0.5)]}),
    json.dumps({"terms": [_entry_with("spatial_coeffs", n=float("nan"))]}),
    json.dumps({"terms": [_entry_with("spatial_coeffs", re=float("inf"))]}),
    json.dumps({"terms": [_entry_with("time_coeffs", re=float("nan"))]}),
    json.dumps({"terms": [_entry_with("time_coeffs", im=float("-inf"))]}),
])
def test_solve_potential_malformed_file_exit_1(text, tmp_path):
    # a value of the wrong JSON type, a number that is not finite and a freq, n or m that is
    # not an integer exit 1 with `error: ` first (naming the term inside one) and no traceback
    pot_file = tmp_path / "pot.json"
    pot_file.write_text(text)
    code, out, err = _run_captured(["solve-potential", "--potential", str(pot_file), "--N", "4"])
    assert code == 1 and err.startswith("error: "), err
    assert "Traceback" not in err and "converged" not in out
    if text.startswith('{"terms": [{'):
        assert err.startswith("error: potential term 0, "), err


def test_solve_potential_overflowing_product_prints_no_warning(tmp_path):
    # finite inputs whose product V = a(t) B(x) overflows: the sup-in-time profile is inf, and
    # the gate's L^q norm fails with `numerical error:` as the first stderr line
    pot_file = tmp_path / "pot.json"
    term = {**_entry_with("spatial_coeffs", re=1e308), "time_coeffs": [{"freq": 0, "re": 1e308}]}
    pot_file.write_text(json.dumps({"terms": [term]}))
    code, out, err = _run_captured(["solve-potential", "--potential", str(pot_file), "--N", "4"])
    assert code == 2 and err.startswith("numerical error: "), err
    assert "Warning" not in err and "converged" not in out


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_solve_potential_max_iter_below_1_exit_1(max_iter, tmp_path, capsys):
    pot_file = tmp_path / "pot.json"
    pot_file.write_text(json.dumps({"terms": [_TERM]}))
    assert run(["solve-potential", "--potential", str(pot_file), "--N", "4",
                "--max-iter", max_iter]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: max_iter must be >= 1")
    assert "converged" not in captured.out


@pytest.mark.parametrize("tol", ["-1", "-0.5"])
def test_solve_potential_unreachable_tol_exit_1_before_any_transform(tol, tmp_path, monkeypatch,
                                                                     capsys):
    # a tol below 0 cannot be reached (increments stall at rounding level): exit 1 at once, not
    # exit 2 after the increments stall, with a message that blamed the potential
    def no_work(*args, **kwargs):
        raise AssertionError("transform started")

    for name in ("grids._synthesize", "grids._analyze", "grids._degree_synthesis",
                 "potential._synthesize", "potential._analyze", "spectral._synthesize",
                 "spectral._degree_synthesis", "norms._legendre_stage"):
        monkeypatch.setattr(f"sphere_strichartz.{name}", no_work)
    pot_file = tmp_path / "pot.json"
    pot_file.write_text(json.dumps({"terms": [_TERM]}))
    assert run(["solve-potential", "--potential", str(pot_file), "--N", "4", "--tol", tol]) == 1
    captured = capsys.readouterr()
    want = f"error: max_iter must be >= 1 and tol >= 0, got 30 and tol = {float(tol)}\n"
    assert captured.err == want
    assert captured.out == ""


def test_solve_potential_d3_zonal_file(tmp_path, capsys):
    # d >= 3 potential files hold zonal terms, written as m = 0 entries
    pot_file = tmp_path / "pot.json"
    term = {"time_coeffs": [{"freq": 1, "re": 0.015}, {"freq": -1, "re": 0.015}],
            "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0, "im": 0.0}]}
    pot_file.write_text(json.dumps({"terms": [term]}))
    out = tmp_path / "report.json"
    assert run(["solve-potential", "--potential", str(pot_file), "--d", "3", "--N", "4",
                "--seed", "2", "--format", "json", "--output", str(out)]) == 0
    assert "converged" in capsys.readouterr().out
    assert float(json.loads(out.read_text())["summary"]["residual"]) <= 1e-6
    term["spatial_coeffs"].append({"n": 1, "m": 1, "re": 0.5})
    pot_file.write_text(json.dumps({"terms": [term]}))
    assert run(["solve-potential", "--potential", str(pot_file), "--d", "3", "--N", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: potential term 0, entry 1: m = 1")
    assert "Traceback" not in err


def test_solve_potential_aliasing_time_frequency_exit_1(tmp_path):
    # at N = 4 the default grid has M = 168 nodes, on which freq 169 is freq 1
    pot_file = tmp_path / "pot.json"
    term = {"time_coeffs": [{"freq": 169, "re": 0.015}, {"freq": -169, "re": 0.015}],
            "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0}]}
    pot_file.write_text(json.dumps({"terms": [term]}))
    code, out, err = _run_captured(["solve-potential", "--potential", str(pot_file), "--N", "4"])
    assert code == 1 and err.startswith("error: potential time frequency 169 "), err
    assert "M = 168" in err and "converged" not in out


def test_selftest_small(capsys):
    assert run(["selftest", "--N", "24"]) == 0
    out = capsys.readouterr().out
    assert "round-trip" in out
    assert "FAIL" not in out


def test_selftest_failure_exit_2(monkeypatch):
    # a forward transform off by 1e-9 fails both round trips: FAIL lines, then exit 2
    forward = cli.forward_sht
    monkeypatch.setattr(cli, "forward_sht", lambda vals, grid, N: CoefficientTable(
        N, grid.d, forward(vals, grid, N).a + 1e-9))
    code, out, err = _run_captured(["selftest", "--N", "8"])
    assert code == 2 and err == "selftest: FAILURES present\n", err
    assert out.count("FAIL  ") == 2 and "round-trip" in out


@pytest.mark.parametrize("argv", [
    ["selftest", "--N", "64"],
    ["sweep", "--d", "3", "--p", "4", "--n", "16:64"],
    ["sharpness", "--p", "4", "--s", "auto", "--n", "16:32:3"],
    ["solve-potential", "--potential", "{potential}", "--N", "6"],
], ids=["selftest-64", "sweep-d3-p4", "sharpness-s-auto", "solve-potential-n6"])
def test_default_runs_exit_0_with_empty_stderr(argv, tmp_path):
    # the golden digests skip off their recorded host; these pin the exit code everywhere
    potential = tmp_path / "pot.json"
    potential.write_text(json.dumps(_README_POTENTIAL))
    code, out, err = _run_captured([arg.format(potential=potential) for arg in argv])
    assert (code, err) == (0, ""), err
    assert out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sphere_strichartz.cli", "kappa", "--d", "3",
         "--p", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "0.25" in proc.stdout


def test_package_imports_no_scipy():
    # scipy is a test-only dependency: a fresh process that imports the package and its
    # CLI must load no scipy module
    src = str(Path(sphere_strichartz.__file__).resolve().parents[1])
    code = ("import sys, sphere_strichartz, sphere_strichartz.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_ma_unloaded():
    # numpy.ma costs every CLI process about 15 ms and 1.3 MB at start-up; nothing the CLI
    # imports (DEFAULT_DEGREES is computed at import) may pull it in.  numpy 1.x imports
    # numpy.ma itself, so the check is that the CLI adds nothing to what numpy loads.
    src = str(Path(sphere_strichartz.__file__).resolve().parents[1])
    code = ("import sys, numpy; print('numpy.ma' in sys.modules); "
            "import sphere_strichartz.cli; print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    by_numpy, after_cli = proc.stdout.split()
    assert after_cli == by_numpy
    if int(np.__version__.split(".")[0]) >= 2:
        assert after_cli == "False"


def test_degree_512_sweep_runs_under_address_space_limit(tmp_path):
    # single-degree synthesis needs one Legendre row, not the O(N^3) table (2.2 GB at
    # grid band 1024), so a degree-512 projection sweep fits in a 1.5 GB address space
    resource = pytest.importorskip("resource")
    limit = 1_500_000 * 1024  # `ulimit -v 1500000`

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(sphere_strichartz.__file__).resolve().parents[1])
    # two BLAS threads: each thread's reserved stack and buffers count against the limit
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-m", "sphere_strichartz.cli", "sweep", "--d", "2", "--p", "4",
         "--family", "random", "--n", "256:512:3", "--output", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "sweep.csv").read_text().strip().split("\n")) == 4


def _selftest_under_address_space_limit(N, kb):
    """`selftest --N N` in a child process capped at `ulimit -v kb`, two BLAS threads."""
    resource = pytest.importorskip("resource")
    limit = kb * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(sphere_strichartz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-m", "sphere_strichartz.cli", "selftest", "--N", str(N)],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    *checks, last = proc.stdout.strip().split("\n")
    assert len(checks) == 6 and all(line.startswith("PASS  ") for line in checks), proc.stdout
    assert last == "selftest: all checks passed"


def test_selftest_512_runs_under_1_gb_address_space_limit():
    _selftest_under_address_space_limit(512, 1_000_000)


def test_selftest_512_runs_under_half_gb_address_space_limit():
    # no O(N^3) Legendre table: blocks of 16 orders (34 MB at N = 512) are recomputed on
    # each pass, where the table of one hemisphere of nodes alone took 0.54 GB
    _selftest_under_address_space_limit(512, 500_000)


def test_out_of_memory_under_address_space_limit_exit_1():
    # at N = 300 the phase table alone is 829 MiB: the run must stop with `error: ...`
    resource = pytest.importorskip("resource")
    limit = 1_500_000 * 1024  # `ulimit -v 1500000`

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(sphere_strichartz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-m", "sphere_strichartz.cli", "strichartz", "--N", "300", "--p", "4"],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# -- the exit contract over every subcommand's edge flag values ------------------------------

_EDGE = ("-1", "0", "1", "nan", "inf", "-inf", "1e308", "1e-308")
# a valid value per flag; each example gives up to two flags of its subcommand an edge value
# and the others their valid one.  Band limits stay at N <= 8 and degrees within 1..16.
_CONTRACT_FLAGS = {
    "kappa": {"--d": "2", "--p": "4", "--q": "2"},
    "identity-check": {"--d": "3", "--N": "6", "--trials": "1", "--p-list": "2,inf",
                       "--tol": "1e-10"},
    "sweep": {"--d": "2", "--p": "4", "--family": "random", "--n": "2:16:3", "--oversample": "2"},
    "strichartz": {"--d": "2", "--N": "8", "--p": "6", "--q": "4", "--s": "auto",
                   "--family": "hw"},
    "sharpness": {"--d": "3", "--p": "inf", "--s": "0.4", "--n": "2:16:3"},
    "solve-potential": {"--d": "2", "--N": "3", "--p": "4", "--s": "auto", "--tol": "1e-8",
                        "--max-iter": "4", "--M": "64"},
    "selftest": {"--N": "8"},
}
_README_POTENTIAL = {"terms": [{  # 0.03 cos(t) Y_{1,0}
    "time_coeffs": [{"freq": 1, "re": 0.015, "im": 0.0}, {"freq": -1, "re": 0.015, "im": 0.0}],
    "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0, "im": 0.0}]}]}
_CHOICES = {"--family": ("random", "zonal", "hw")}  # no edge values: argparse choices
# result columns that must be nonzero on exit 0; `p` and `q` echo flags, where inf is valid
_NONZERO = {"ratio", "sampled", "spectral"}
_ECHOED = {"p", "q"}


def _run_captured(argv):
    """cli.run(argv) in process: (exit code, stdout, stderr), RuntimeWarnings included in stderr
    as a CLI process would print them."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        code = run(argv)
    shown = "".join(f"{w.filename}:{w.lineno}: {w.category.__name__}: {w.message}\n"
                    for w in caught)
    return code, out.getvalue(), shown + err.getvalue()


@st.composite
def _edge_argv(draw):
    """A subcommand's argv with up to two flags at an edge value, the others valid."""
    command = draw(st.sampled_from(sorted(_CONTRACT_FLAGS)))
    flags = _CONTRACT_FLAGS[command]
    edged = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, valid in flags.items():
        argv += [flag, draw(st.sampled_from(_CHOICES.get(flag, _EDGE if flag in edged
                                                          else (valid,))))]
    return argv + ["--seed", draw(st.sampled_from(("5", "0", "-1")))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_edge_argv(), fmt=st.sampled_from(("csv", "json")))
# the three edge inputs that once ended in a ratio of 0, a traceback and a numpy message
@example(argv=["strichartz", "--N", "40", "--p", "4", "--s", "300"], fmt="csv")
@example(argv=["identity-check", "--N", "4", "--p-list", "1e308"], fmt="csv")
@example(argv=["strichartz", "--N", "-1", "--p", "4"], fmt="csv")
# a:b:k's k at its edge values: no points, a negative count, and two k that int() refuses
@example(argv=["sweep", "--p", "4", "--family", "random", "--n", "2:16:0"], fmt="csv")
@example(argv=["sweep", "--p", "4", "--family", "random", "--n", "2:16:-1"], fmt="csv")
@example(argv=["sweep", "--p", "4", "--family", "random", "--n", "2:16:nan"], fmt="csv")
@example(argv=["sweep", "--p", "4", "--family", "random", "--n", "2:16:1e308"], fmt="csv")
@example(argv=["sharpness", "--p", "inf", "--s", "0.4", "--n", "2:16:0"], fmt="csv")
@example(argv=["sharpness", "--p", "inf", "--s", "0.4", "--n", "2:16:-1"], fmt="csv")
@example(argv=["sharpness", "--p", "inf", "--s", "0.4", "--n", "2:16:nan"], fmt="csv")
@example(argv=["sharpness", "--p", "inf", "--s", "0.4", "--n", "2:16:1e308"], fmt="csv")
def test_every_exit_keeps_the_contract(argv, fmt):
    # exit 0, 1 or 2 and no exception out of run; exit 1 with a first stderr line `error:`,
    # also for a flag value argparse cannot parse; exit 2 with `numerical error:`,
    # `divergence:` or a FAIL line; exit 0 with finite results and nonzero ratios and norms
    with tempfile.TemporaryDirectory() as tmp:
        potential = Path(tmp) / "potential.json"
        potential.write_text(json.dumps(_README_POTENTIAL))
        output = Path(tmp) / "out"
        if argv[0] == "solve-potential":
            argv = argv + ["--potential", str(potential)]
        code, _, err = _run_captured(argv + ["--format", fmt, "--output", str(output)])
        first = err.splitlines()[0] if err else ""
        if code == 0:
            for name, values in compare_outputs.output_fields(output.read_text()).items():
                for text in values:
                    try:
                        value = float(text)
                    except ValueError:
                        continue
                    assert name in _ECHOED or math.isfinite(value), (argv, name, text)
                    assert name not in _NONZERO or value != 0.0, (argv, name, text)
        elif code == 1:
            assert first.startswith("error: "), (argv, err)
        else:
            assert code == 2, (argv, code, err)
            assert first.startswith(("numerical error: ", "divergence: ")) or "FAIL" in first, \
                (argv, err)


# -- every flag of every subcommand acts ------------------------------------------------------

# a base argv per subcommand at small sizes, and one other value for each of its flags.  sweep's
# base draws --family random: the zonal and highest-weight witnesses draw nothing, so --seed acts
# on that family only (and its --d 3 exits 1, as random draws need d = 2).  --output is where the
# bytes are read, and --config only supplies these flags.
_FLAG_CASES = {
    "kappa": (["--d", "2", "--p", "4"], {"--d": "3", "--p": "6", "--q": "4"}),
    "identity-check": (["--d", "2", "--N", "6", "--trials", "1", "--p-list", "2,inf"],
                       {"--d": "3", "--N": "8", "--trials": "2", "--p-list": "2,4",
                        "--tol": "1e-20"}),
    "sweep": (["--d", "2", "--p", "4", "--family", "random", "--n", "8:16:3"],
              {"--d": "3", "--p": "6", "--family": "hw", "--n": "8:16:4", "--oversample": "3"}),
    "strichartz": (["--d", "2", "--N", "6", "--p", "4"],
                   {"--d": "3", "--N": "8", "--p": "6", "--q": "4", "--s": "0.3",
                    "--family": "hw"}),
    "sharpness": (["--d", "2", "--p", "inf", "--s", "0.4", "--n", "8:16:3"],
                  {"--d": "3", "--p": "6", "--s": "0.3", "--n": "8:16:4"}),
    "solve-potential": (["--potential", "{potential}", "--N", "3"],
                        {"--potential": "{band2}", "--d": "3", "--N": "4", "--p": "inf",
                         "--s": "0.3", "--tol": "1e-12", "--max-iter": "1", "--M": "128"}),
    "selftest": (["--N", "8"], {"--N": "16"}),
}
_COMMON_CASES = {"--format": "json", "--seed": "1"}
# flags that change nothing on their subcommand: kappa draws no field, and sharpness' witnesses
# are the zonal and highest-weight ones (perfbench's cli_cold_start passes --seed to it)
_INERT = {("kappa", "--seed"), ("sharpness", "--seed")}


def _subcommand_flags() -> dict:
    """Each subcommand's long flags, as its parser declares them."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {opt for action in parser._actions for opt in action.option_strings
                   if opt.startswith("--")} for name, parser in sub.choices.items()}


def test_every_flag_acts(tmp_path):
    # changing any one flag to another value changes the exit code, stdout or --output bytes
    files = compare_outputs.potential_files(tmp_path)
    output = tmp_path / "out"

    def outcome(command, argv):
        output.unlink(missing_ok=True)
        code, stdout, _ = _run_captured([command, *(arg.format(**files) for arg in argv),
                                         "--output", str(output)])
        return code, stdout, output.read_bytes() if output.exists() else None

    inert = set()
    for command, flags in _subcommand_flags().items():
        base, changes = _FLAG_CASES[command]
        changes = {**changes, **_COMMON_CASES}
        assert set(changes) == flags - {"--help", "--config", "--output"}, command
        want = outcome(command, base)
        assert want[0] == 0, (command, want)
        for flag, value in changes.items():
            argv = list(base)
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
            if outcome(command, argv) == want:
                inert.add((command, flag))
    assert inert == _INERT
