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


@pytest.mark.parametrize("argv", [
    ["classes", "--oracle", "--gamma", "cyclic:2", "--n", "0"],
    ["verify", "oracle", "--gamma", "cyclic:2", "--n", "0"],
])
def test_oracle_at_size_zero(argv):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if argv[0] == "classes":
        assert doc["oracle"] == {"status": "ok", "classes": 2, "even_split_pairs": 1,
                                 "odd_split_pairs": 0, "mismatches": []}
    else:
        assert doc["status"] == "ok"


def test_affine_window_zero_is_a_usage_error():
    # [0, 0] holds no odd index, so hh and hx would pass on zero instances
    assert_one_usage_error(*run_cli("verify", "affine", "--xi", "mckay", "--gamma", "cyclic:2",
                                    "--window", "0", "--degree", "1"), "--window")


# S3: classes e, t (transpositions), r (3-cycles); characters 1, sgn and the
# 2-dimensional one.  An @file Gamma has no multiplication table.
S3 = {"name": "s3", "order": 6,
      "classes": [{"name": "e", "size": 1, "element_order": 1, "inverse": 0},
                  {"name": "t", "size": 3, "element_order": 2, "inverse": 1},
                  {"name": "r", "size": 2, "element_order": 3, "inverse": 2}],
      "chars": [[{"N": 1, "coeffs": [[v, 1]]} for v in row]
                for row in ([1, 1, 1], [1, -1, 1], [2, 0, -1])]}


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3))
    return f"@{path}"


@pytest.mark.parametrize("argv,expect", [
    (["verify", "clifford", "--gamma", "cyclic:2", "--xi", "mckay"], "standard weight"),
    (["verify", "affine", "--gamma", "cyclic:2", "--xi", "standard"], "McKay weight"),
    (["verify", "affine", "--xi", "standard"], "McKay weight"),  # trivial Gamma: no McKay weight
    (["verify", "heisenberg", "--gamma", "cyclic:3", "--xi", "1,2"], "xi needs 3 coefficients"),
    (["verify", "heisenberg", "--gamma", "cyclic:3", "--xi", "1,a,2"], "xi must be"),
    (["verify", "heisenberg", "--gamma", "cyclic:2", "--degree", "1", "--format", "csv"],
     "csv output is not available"),
])
def test_verify_usage_errors(argv, expect):
    assert_one_usage_error(*run_cli(*argv), expect)


@pytest.mark.parametrize("argv,expect", [
    (["verify", "oracle", "--n", "1"], "needs a built-in Gamma"),
    (["classes", "--oracle", "--n", "1"], "needs a built-in Gamma"),
])
def test_oracle_needs_a_builtin_gamma(argv, expect, s3_file):
    assert_one_usage_error(*run_cli(*argv, "--gamma", s3_file), expect)


@pytest.mark.parametrize("content,expect", [
    (None, "cannot read config"),
    ("{not json", "cannot read config"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_bad_config_files(tmp_path, content, expect):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert_one_usage_error(*run_cli("chartable", "--config", str(cfg)), expect)


def test_mckay_unrecognized_type_exits_3(s3_file):
    code, out, err = run_cli("mckay", "--gamma", s3_file)
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert doc["gamma"] == "s3" and doc["affine_type"] == "unrecognized"
