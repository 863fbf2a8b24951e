"""Pinned sha256 digests of the program's outputs.

Each case runs a short sequence of ``qincident`` commands in a fresh
directory, with relative paths, so that ``report.json``'s ``out_dir`` is
the same wherever the test runs.  A change that moves a bit of a report, a
table, a CSV, a schedule or a printed line fails here.  A change that moves
bits on purpose re-pins the digest and says why.

The pins were taken with Python 3.11, numpy 2.4.6 and scipy-openblas
0.3.31, under 1 and under 2 BLAS threads alike.  A failure prints the
versions in use, so that a changed BLAS can be told apart from a changed
program.
"""

import contextlib
import hashlib
import io
import platform
from pathlib import Path

import numpy as np
import pytest

from qincident import cli

DS3 = ["experiment", "--splits", "DS-3", "--models", "classical,hybrid-4q", "--runs", "30", "--out", "exp"]
REPORT = ["exp/report.json", "exp/tables.txt"]
GEN = ["gen", "--zones", "6", "--duration", "240", "--seed", "3", "--out", "gen"]
FEATURES = ["features", "--bsm", "gen/bsm.csv", "--schedule", "gen/schedule.json"]

# case -> the commands it runs in order, each with the files it writes
CASES = {
    "ds3-seed0": [(DS3 + ["--seed", "0"], REPORT)],
    "ds3-seed1": [(DS3 + ["--seed", "1"], REPORT)],
    "gradcheck-seed0": [(["gradcheck", "--seed", "0"], [])],
    "gradcheck-seed7": [(["gradcheck", "--seed", "7"], [])],
    "gen-features": [
        (GEN, ["gen/bsm.csv", "gen/schedule.json"]),
        (FEATURES + ["--bucket", "1", "--out", "f1.csv"], ["f1.csv"]),
        (FEATURES + ["--bucket", "60", "--out", "f60.csv"], ["f60.csv"]),
    ],
    "ds1-ds2": [(
        ["experiment", "--zones", "8", "--duration", "300", "--seed", "5", "--splits", "DS-1,DS-2",
         "--models", "classical,hybrid-2q", "--runs", "2", "--epochs", "2", "--out", "exp"],
        REPORT,
    )],
}

PINS = {
    "ds1-ds2": {
        "experiment.0:exit": 0,
        "experiment.0:exp/report.json": "b6a1f77b8ebd280b2b6173ac6f632bb51760d5217f1b7672d471274363d26a31",
        "experiment.0:exp/tables.txt": "b0003ffb47965ae99782025c6e812ccedd43e99eecf691a581d9f12fb4270020",
        "experiment.0:stdout": "dca89c087add1709b02597c2d9269d18e4e1812cb90a6f16cade61f40c0ed3c8",
    },
    "ds3-seed0": {
        "experiment.0:exit": 0,
        "experiment.0:exp/report.json": "3ec69f2583d5b1f526dd1440cbd62901ea870034fef668f673e14ac797861303",
        "experiment.0:exp/tables.txt": "df06df5865aabb74620f4aefaead18402a0d365055d5c96212b365da2373eef2",
        "experiment.0:stdout": "a47bc4169a3a5a91c254635f2a3132edb835b914dbc37b1c46ccd88d8c3100c3",
    },
    "ds3-seed1": {
        "experiment.0:exit": 0,
        "experiment.0:exp/report.json": "82a52490a0410a63ba69ac101aba0423b73cf60ebe2f50b1b930fc2336cfd1b4",
        "experiment.0:exp/tables.txt": "73178295a14a28e1532421dd89702d70554919301a0fc417271edd8581c61b2e",
        "experiment.0:stdout": "153ab31c29410051ab9a3ed1bcac4c89fa66fd4b7baf71d2e9971fa35a57591f",
    },
    "gen-features": {
        "features.1:exit": 0,
        "features.1:f1.csv": "afdcca270b4a359a6f51231a4591a0a283b905d5388bc3ade951359ad5e18133",
        "features.1:stdout": "b338c97b5b4ed80d3d296436630914fed01ab5f935a0ab40e88f872f359f8567",
        "features.2:exit": 0,
        "features.2:f60.csv": "6d9880aea8af423e5f2eddf78595caf1d36801e41722cc665930c725b8a3f6ab",
        "features.2:stdout": "105f94d78af8beec567469fb7737e9e437018926ac79b3d48ee34d616c4ac26e",
        "gen.0:exit": 0,
        "gen.0:gen/bsm.csv": "3745f14db9998653f52dc2677130bf5f1081cf811f2a33a8a2134a434447ae89",
        "gen.0:gen/schedule.json": "cfc8fc8e489ffb4b3b18034ad17e70e127a4c5f727cbcb0a1ae58120874053b3",
        "gen.0:stdout": "abe03f53862d9dce656302e0e2068e9e97c8377c99cab7fc349b980f910a7f0b",
    },
    "gradcheck-seed0": {
        "gradcheck.0:exit": 0,
        "gradcheck.0:stdout": "ace52707a01bcf7dad8ac8bd33158e11754c87471a339752589f06c099f2239f",
    },
    "gradcheck-seed7": {
        "gradcheck.0:exit": 0,
        "gradcheck.0:stdout": "33f444763eb1e571c8e100175836173eac9b62ed21f8479055ac4a3fb3e87a1f",
    },
}


def versions() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name', '?')} {blas.get('version', '?')}")


def run_case(commands) -> dict:
    """The exit code and the digests of the stdout and files of each
    command, keyed as ``<command>.<step>:<output>``: ``gen.0:stdout``,
    ``features.1:f1.csv`` and so on."""
    digests = {}
    for step, (argv, files) in enumerate(commands):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        key = f"{argv[0]}.{step}"
        digests[f"{key}:exit"] = code
        digests[f"{key}:stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for name in files:
            digests[f"{key}:{name}"] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_their_pins(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[case]) == PINS[case], f"{case} moved under {versions()}"
