"""Golden output digests: the SHA-256 of each command's `--output` file, run in process.

The digests in golden_digests.json were recorded together with the numpy version, BLAS
build and CPU features they were recorded under.  Other libraries or another CPU may round
differently, so where any of those differ the test skips and says which.  To record them
again (only when a change is meant to move output bytes):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphere_strichartz import cli

DIGESTS = Path(__file__).with_name("golden_digests.json")

# README's example potential 0.03 cos(t) Y_{1,0}
POTENTIAL = {"terms": [{"time_coeffs": [{"freq": 1, "re": 0.015, "im": 0.0},
                                        {"freq": -1, "re": 0.015, "im": 0.0}],
                        "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0, "im": 0.0}]}]}

COMMANDS = {
    "kappa": ["kappa", "--d", "3", "--p", "6", "--q", "2"],
    "identity-check": ["identity-check", "--N", "12", "--trials", "3"],
    # the zonal free path on S^3: lambda_n, the time grid and the identity at d != 2
    "identity-check-d3": ["identity-check", "--d", "3", "--N", "10", "--trials", "2"],
    "selftest-64": ["selftest", "--N", "64"],
    # a streamed Legendre table: (N+1)^2 K floats above 8 MiB
    "selftest-128": ["selftest", "--N", "128"],
    "sweep-d2": ["sweep", "--d", "2", "--p", "4", "--family", "random", "--n", "16:96:4"],
    # band-400 and band-512 grids: mirrored nodes where Pbar_n^m is an exact zero of either sign
    "sweep-d2-polar": ["sweep", "--d", "2", "--p", "4", "--family", "random",
                       "--n", "200:256:3"],
    "sweep-d3": ["sweep", "--d", "3", "--p", "inf", "--family", "zonal", "--n", "16:96:4"],
    "sharpness": ["sharpness", "--p", "inf", "--s", "0.4", "--n", "16:96:4"],
    "strichartz": ["strichartz", "--N", "16", "--p", "4"],
    "strichartz-d3": ["strichartz", "--d", "3", "--N", "10", "--p", "inf"],
    # the resonant q = 4 route: M = 2404 > 2 lambda_24 = 1200, so the time sums come from
    # resonant degree pairs, with no space chunk and no time sample
    "strichartz-n24-p6q4": ["strichartz", "--N", "24", "--p", "6", "--q", "4"],
    "solve-potential": ["solve-potential", "--potential", "{potential}", "--N", "6",
                        "--format", "json"],
    # the zonal Picard path: README's potential on S^3
    "solve-potential-d3": ["solve-potential", "--potential", "{potential}", "--d", "3",
                           "--N", "4", "--format", "json"],
    # a 6.5 MB history (M = 1256, 13 x 25 tables): larger than one _SERIES_CHUNK_BYTES chunk
    "solve-potential-n12": ["solve-potential", "--potential", "{potential}", "--N", "12",
                            "--format", "json"],
}
# JSON variants: a CSV output holds no summary, so these pin the fitted slope, intercept and
# stderr of the sweeps and of sharpness, and identity-check's max_rel_error
COMMANDS.update({f"{name}-json": COMMANDS[name] + ["--format", "json"]
                 for name in ("identity-check", "sharpness", "sweep-d2", "sweep-d3")})


def environment() -> dict:
    """The numpy version, BLAS build, machine and numpy SIMD targets that outputs depend on."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its configuration only
        blas = "unknown"
    simd = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(), "simd": simd}


def output_digest(name: str, tmp: Path) -> str:
    """Run COMMANDS[name] at --seed 5 through cli.run and hash its --output file."""
    potential = tmp / "potential.json"
    potential.write_text(json.dumps(POTENTIAL), encoding="utf-8")
    output = tmp / f"{name}.out"
    argv = [arg.format(potential=potential) for arg in COMMANDS[name]]
    code = cli.run(argv + ["--seed", "5", "--output", str(output)])
    assert code == 0, f"{name} exited {code}"
    return hashlib.sha256(output.read_bytes()).hexdigest()


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _skip_unless_recorded_environment():
    recorded = _recorded()["environment"]
    moved = {k: (recorded.get(k), v) for k, v in environment().items() if recorded.get(k) != v}
    if moved:
        pytest.skip(f"digests recorded under another environment (recorded, here): {moved}")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_digest_matches_recording(name, tmp_path):
    _skip_unless_recorded_environment()
    assert output_digest(name, tmp_path) == _recorded()["digests"][name]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a whole-array np.linalg.norm is a BLAS dot, which OpenBLAS "
                   "splits across threads, so its rounding depends on their count")
def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The same sweep in two child processes, at one and at two BLAS threads: random fields
    # from N = 70 on are normalized by such a dot, so the n = 256 ratio moves in its last
    # digits.  A child that fails raises CalledProcessError, which this xfail does not accept.
    _skip_unless_recorded_environment()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("one CPU: a second BLAS thread does not run in parallel")
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        output = tmp_path / f"sweep-{threads}.csv"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "sphere_strichartz.cli", "sweep", "--d", "2",
                        "--p", "4", "--family", "random", "--n", "32:256:6",
                        "--output", str(output)], env=env, check=True, capture_output=True)
        outputs.append(output.read_bytes().splitlines())
    assert outputs[0] == outputs[1]


def test_recording_covers_every_command():
    assert sorted(_recorded()["digests"]) == sorted(COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_digest(name, Path(tmp)) for name in sorted(COMMANDS)}
    DIGESTS.write_text(json.dumps({"environment": environment(), "digests": digests},
                                  indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
