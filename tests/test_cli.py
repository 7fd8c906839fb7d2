"""Exit codes and error messages of the command-line front end.

Each case runs the CLI in a child interpreter, so stderr holds everything a
user would see, log records included.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "spinwreath.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def assert_one_usage_error(code, out, err, expect):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert expect in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["chartable", "--gamma", "trivial", "--n", "-1"], "--n"),
    (["verify", "heisenberg", "--gamma", "cyclic:3", "--degree", "-2"], "--degree"),
    (["verify", "clifford", "--gamma", "cyclic:2", "--window", "-1"], "--window"),
])
def test_negative_sizes_are_usage_errors(argv, flag):
    assert_one_usage_error(*run_cli(*argv), f"{flag} must be at least 0")


def test_negative_size_from_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": -3}))
    assert_one_usage_error(*run_cli("chartable", "--config", str(cfg)), "--n must be at least 0")


def test_mckay_pi_index_out_of_range():
    assert_one_usage_error(*run_cli("mckay", "--gamma", "quaternion8", "--pi-index", "9"),
                           "pi index out of range")


def test_usage_error_is_printed_once(tmp_path):
    assert_one_usage_error(*run_cli("chartable", "--gamma", "nope"), "unknown built-in group")
    assert_one_usage_error(*run_cli("mckay", "--gamma", "quaternion8", "--pi-index", "1"),
                           "not 2-dimensional")
    bad = tmp_path / "gamma.json"
    bad.write_text("[1, 2]")
    assert_one_usage_error(*run_cli("chartable", "--gamma", f"@{bad}"), "invalid Gamma document")


def test_size_zero_is_accepted():
    code, out, err = run_cli("chartable", "--gamma", "trivial", "--n", "0")
    assert code == 0 and err == ""
    assert json.loads(out)["n"] == 0


def test_affine_jobs_split_matches_one_job():
    argv = ["verify", "affine", "--xi", "mckay", "--gamma", "cyclic:2",
            "--window", "1", "--degree", "1"]
    code1, out1, err1 = run_cli(*argv, "--jobs", "1")
    code2, out2, err2 = run_cli(*argv, "--jobs", "2")
    assert (code1, code2) == (0, 0), err2
    assert "Traceback" not in err2
    assert out2 == out1
    labels = [r["index_set"] for r in json.loads(out1)["results"]]
    assert labels == ["toroidal"] * 6 + ["affine"] * 6
