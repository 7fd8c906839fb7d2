"""Exit codes and error messages of the command-line front end.

Each case runs the CLI in a child interpreter, so stderr holds everything a
user would see, log records included.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv, log=None):
    """Run the CLI; log, when given, is the SPINWREATH_LOG setting, which
    is unset otherwise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("SPINWREATH_LOG", None)
    if log is not None:
        env["SPINWREATH_LOG"] = log
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


def test_unwritable_out_is_a_usage_error(tmp_path):
    argv = ["classes", "--gamma", "trivial", "--n", "1", "--out"]
    missing = tmp_path / "nodir" / "x.json"
    assert_one_usage_error(*run_cli(*argv, str(missing)), f"cannot write --out {missing}")
    assert_one_usage_error(*run_cli(*argv, str(tmp_path)), f"cannot write --out {tmp_path}")


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


@pytest.mark.parametrize("spec", ["cyclic:x", "cyclic:2:3", "cyclic:", "cyclic:0", "cyclic:-2"])
def test_bad_cyclic_spec_is_one_usage_error(spec):
    assert_one_usage_error(*run_cli("chartable", "--gamma", spec, "--n", "1"),
                           f"bad built-in group {spec!r}: cyclic:k needs k a positive integer")


def test_size_zero_is_accepted():
    code, out, err = run_cli("chartable", "--gamma", "trivial", "--n", "0")
    assert code == 0 and err == ""
    assert json.loads(out)["n"] == 0


def test_affine_runs_both_index_sets_and_has_no_jobs_flag():
    argv = ["verify", "affine", "--xi", "mckay", "--gamma", "cyclic:2",
            "--window", "1", "--degree", "1"]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    labels = [r["index_set"] for r in json.loads(out)["results"]]
    assert labels == ["toroidal"] * 6 + ["affine"] * 6
    code, out, err = run_cli(*argv, "--jobs", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --jobs 2" in err and "Traceback" not in err


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
    (["verify", "isometry", "--gamma", "cyclic:3", "--n", "2", "--xi", "1,2,0"],
     "xi 1,2,0 is not self-dual"),
    (["verify", "hopf", "--gamma", "cyclic:3", "--n", "3", "--xi", "1,2,0"],
     "xi 1,2,0 is not self-dual"),
    (["verify", "isometry", "--gamma", "cyclic:4", "--n", "2", "--xi", "1,1,0,0"],
     "xi 1,1,0,0 is not self-dual"),
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


def test_gamma_with_a_negative_degree_is_a_usage_error(tmp_path):
    # orthonormal rows, but the second character has degree -1
    doc = {"name": "bad", "order": 2,
           "classes": [{"name": "e", "size": 1, "element_order": 1, "inverse": 0},
                       {"name": "c", "size": 1, "element_order": 2, "inverse": 1}],
           "chars": [[{"N": 1, "coeffs": [[v, 1]]} for v in row] for row in ([1, 1], [-1, 1])]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["chartable", "--n", "2"], ["chartable", "--check", "--n", "2"],
                 ["verify", "isometry", "--n", "2"]):
        assert_one_usage_error(*run_cli(*argv, "--gamma", f"@{path}"),
                               "degree of character 1 is not a positive integer: -1")


@pytest.mark.parametrize("path,value,expect", [
    (("order",), 3.9, "order must be an integer, got 3.9"),
    (("classes", 0, "size"), True, "classes[0].size must be an integer, got true"),
    (("chars", 0, 0, "coeffs"), [[1, 0]], "coefficient [1, 0] has a zero denominator"),
])
def test_gamma_number_that_is_no_json_integer_is_a_usage_error(tmp_path, path, value, expect):
    # int() would read 3.9 as 3 and true as 1, and Fraction(1, 0) raises
    # ZeroDivisionError: each is one usage error instead
    doc = {"name": "c3", "order": 3,
           "classes": [{"name": "e", "size": 1, "element_order": 1, "inverse": 0},
                       {"name": "c1", "size": 1, "element_order": 3, "inverse": 2},
                       {"name": "c2", "size": 1, "element_order": 3, "inverse": 1}],
           "chars": [[{"N": 1, "coeffs": [[1, 1]]}] * 3,
                     [{"N": 1, "coeffs": [[1, 1]]}, {"N": 3, "coeffs": [[0, 1], [1, 1]]},
                      {"N": 3, "coeffs": [[-1, 1], [-1, 1]]}],
                     [{"N": 1, "coeffs": [[1, 1]]}, {"N": 3, "coeffs": [[-1, 1], [-1, 1]]},
                      {"N": 3, "coeffs": [[0, 1], [1, 1]]}]]}
    doc_file = tmp_path / "c3.json"
    doc_file.write_text(json.dumps(doc))
    code, out, _ = run_cli("chartable", "--gamma", f"@{doc_file}", "--n", "1")
    assert code == 0 and out
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    doc_file.write_text(json.dumps(doc))
    assert_one_usage_error(*run_cli("chartable", "--gamma", f"@{doc_file}", "--n", "1"),
                           f"malformed Gamma document: {expect}")


@pytest.mark.parametrize("edit,expect", [
    (lambda doc: doc.update(name=None), "name must be a string, got null"),
    (lambda doc: doc["classes"][1].update(name=7), "classes[1].name must be a string, got 7"),
    (lambda doc: doc["classes"][2].update(name="c1"), 'classes[2].name repeats "c1"'),
])
def test_gamma_name_that_is_no_distinct_json_string_is_a_usage_error(tmp_path, edit, expect):
    # str() would print a null name as "None" and a class 7 as a column "7",
    # and two classes named alike would print two equal columns
    from spinwreath.gammadata import builtin

    doc = builtin("cyclic:3")[0].to_doc()
    edit(doc)
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(doc))
    assert_one_usage_error(*run_cli("chartable", "--gamma", f"@{path}", "--n", "2"),
                           f"malformed Gamma document: {expect}")


@pytest.mark.parametrize("key,values,expect", [
    ("size", {1: 0, 2: 2}, "class c1 has size 0; class sizes must be positive"),
    ("element_order", {1: 9},
     "element order 9 of class c1 is not a positive divisor of |Gamma| = 3"),
    ("element_order", {1: 0},
     "element order 0 of class c1 is not a positive divisor of |Gamma| = 3"),
], ids=["size-0", "order-9", "order-0"])
def test_gamma_with_bad_class_data_is_a_usage_error(tmp_path, key, values, expect):
    # a zero size raised ZeroDivisionError (exit 1 with a traceback), and an
    # element order 9 wrote the table at "N": 9 with exit 0
    from spinwreath.gammadata import builtin

    doc = builtin("cyclic:3")[0].to_doc()
    for ci, v in values.items():
        doc["classes"][ci][key] = v
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(doc))
    for n in ("1", "2"):
        assert_one_usage_error(*run_cli("chartable", "--gamma", f"@{path}", "--n", n), expect)


def test_gamma_with_an_irrational_degree_prints_it_exactly(tmp_path):
    from spinwreath.gammadata import builtin

    doc = builtin("cyclic:3")[0].to_doc()
    doc["chars"][1][0] = {"N": 3, "coeffs": [[0, 1], [1, 1]]}  # zeta_3
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(doc))
    assert_one_usage_error(*run_cli("chartable", "--gamma", f"@{path}", "--n", "2"),
                           'degree of character 1 is not a positive integer: '
                           '{"N":3,"coeffs":[[0,1],[1,1]]}')


# orthonormal rows with positive degrees, but no group: g1*g1 has g1 with
# multiplicity -8/9, and the McKay-like weight 2,-1,0,0 has Gram entry 26/9
FAKE4 = {"name": "fake4", "order": 4,
         "classes": [{"name": f"c{c}", "size": 1, "element_order": 1 if c == 0 else 2,
                      "inverse": c} for c in range(4)],
         "chars": [[{"N": 1, "coeffs": [[1, 1]]}] * 4]
         + [[{"N": 1, "coeffs": [[1, 1]]}] + [{"N": 1, "coeffs": [[-5, 3] if c == i else [1, 3]]}
                                              for c in range(1, 4)] for i in range(1, 4)]}


@pytest.mark.parametrize("argv", [
    ["chartable", "--n", "2"], ["chartable", "--check", "--n", "2"],
    ["verify", "heisenberg", "--xi", "2,-1,0,0"], ["verify", "ope", "--xi", "2,-1,0,0"],
    ["verify", "isometry", "--xi", "2,-1,0,0"],
])
def test_gamma_whose_products_do_not_decompose_is_a_usage_error(tmp_path, argv):
    path = tmp_path / "fake4.json"
    path.write_text(json.dumps(FAKE4))
    assert_one_usage_error(*run_cli(*argv, "--gamma", f"@{path}"),
                           "g1*g1 is not a character: g1 occurs -8/9 times")


BAD_CONFIG_VALUES = [
    ({"n": "3"}, "config value 'n' must be int, got \"3\""),
    ({"n": True}, "config value 'n' must be int, got true"),
    ({"gamma": 5}, "config value 'gamma' must be str, got 5"),
    ({"xi": [1, 0]}, "config value 'xi' must be str, got [1, 0]"),
    ({"format": "xml"}, "config value 'format' must be one of json, csv, pretty, got \"xml\""),
]


# chartable has no --xi, so it never reads a config xi
@pytest.mark.parametrize("argv,config,expect", [
    (argv, config, expect) for argv in (["chartable"], ["verify", "heisenberg"])
    for config, expect in BAD_CONFIG_VALUES if not (argv == ["chartable"] and "xi" in config)])
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, argv, config, expect):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert_one_usage_error(*run_cli(*argv, "--config", str(cfg)), expect)


@pytest.mark.parametrize("argv,config,unknown", [
    (["verify", "heisenberg"], {"n": 2, "degre": 1}, "unknown config key 'degre'"),
    (["chartable"], {"n": 2, "jobs": 3}, "unknown config key 'jobs'"),
    (["chartable"], {"check": True}, "unknown config key 'check'"),
    (["verify", "isometry"], {"jobs": 3, "check": True}, "unknown config keys 'check', 'jobs'"),
])
def test_unknown_config_key_is_a_usage_error(tmp_path, argv, config, unknown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert_one_usage_error(*run_cli(*argv, "--config", str(cfg)), unknown)


def test_known_config_key_without_a_flag_is_accepted(tmp_path):
    # one file serves several commands: chartable has no --window or --xi
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "window": 3, "xi": "mckay", "degree": 1}))
    code, out, err = run_cli("chartable", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == 1


# stdout sha256 of runs the benchmark's goldens do not cover: tables with
# irrational values at several orders, and the pairing at the McKay weight,
# whose Gram matrix is not diagonal
OUTPUT_SHA256 = {
    "chartable --gamma cyclic:9 --n 2":
        "921602185014d0fce9ee37a6e45adc9ae2a1f7a2cdd707d69b3db984c49138aa",
    "chartable --gamma cyclic:5 --n 3":
        "3405ad4fb85d0a0fde8937216d13c8c8a77fb3f7b55aeec41cccbdfc6374919c",
    "chartable --gamma cyclic:8 --n 2":
        "fa40e55cdfa7db5556136af8bc86aefa10346a4eae85f35d7bf724e6c5ae0d47",
    "verify isometry --xi mckay --gamma cyclic:3 --n 3":
        "6b9b301df39adb4f8ab0753a0c6b74a3146be1079db6a6a14dc57ebbc7c4b25a",
    "verify hopf --xi mckay --gamma quaternion8 --n 3":
        "16ea4e29593bd2e2a5ec3ee786fb97e333bb3ce64dcfc739db484993f43c2411",
    # ch images, coproducts and tensor pairings with irrational coefficients
    "verify hopf --gamma cyclic:3 --n 3":
        "bd1be951d0319d2c93ec28b0da219e6b1be32410cc9fd66d0f69e99e5c8f6970",
    "verify isometry --gamma cyclic:4 --n 3":
        "56da5b54a93e9dc882707ccefdc4bcf87d69be5eeefd93d34c0ec0c1648f9912",
    # the CSV rendering of the pinned tables, read back from their documents
    "chartable --gamma cyclic:9 --n 2 --format csv":
        "cf590fa95b4b19096cccaf33a47209f90d4e2e99654c801b8ce5a28e094330a7",
    "chartable --gamma cyclic:5 --n 3 --format csv":
        "c42d54246c815103e790612dbf3da8d827a2f6eaced6f09b2717d2acb57b762f",
    "chartable --gamma cyclic:8 --n 2 --format csv":
        "2bac348619008e0a1f05f8a4d5f6485da7826c7a44b984376a3cae73eaac58fb",
    # orthogonality and the isometry on a value axis of phi(7) = 6 numerators
    "chartable --check --gamma cyclic:7 --n 2":
        "8b0c5449b2bb779d1e4a814af4c13dcd42de520f47f63528594d71598adc4f78",
    "verify isometry --gamma cyclic:7 --n 2":
        "f0dcd6ac267bbf9177cde88c8131adce4b796b35f06a8ac53c06f0f51ddee85f",
    # the largest table check: 95 rows, 9 025 pairings
    "chartable --check --gamma quaternion8 --n 4":
        "181f7a35efb041ac1ef6bbcd4778387c1de30b04c4e91c296d14689c9ab475c0",
    # the brute-force oracle: split classification and basic spin traces on
    # the largest cover it runs in a test, and the class list at trivial n=5
    "verify oracle --gamma quaternion8 --n 3":
        "0c9cde056adc3d6f899281f2fd7c1846f29be886e62097236e29fc7d55f8fea9",
    "classes --oracle --gamma trivial --n 5":
        "288234cc121f44e0bfc1ba6ffdb75be1d3013b028fd666a01c258fda7f666ee0",
    # tables whose rows are mostly filled by the linear twists; the first has
    # the same bytes as its --check pin above
    "chartable --gamma quaternion8 --n 4":
        "181f7a35efb041ac1ef6bbcd4778387c1de30b04c4e91c296d14689c9ab475c0",
    "chartable --gamma klein4 --n 4":
        "ea513fe4ec272142d908a1fb0885b56dffa926f9c2b13876171c3e227c6d2715",
    "chartable --gamma cyclic:6 --n 3":
        "6f7b78b02191c13bab0e28d6f9f0599a339cc871a7587f1f9d50d54d639326e6",
    "chartable --gamma cyclic:4 --n 4":
        "50629283158389147b396cd3e702b990f1c8a044c08ffb849d81a00cd3631e07",
    "chartable --gamma cyclic:9 --n 3":
        "53249b4ec83aa6b0eb774bd49be382b45be1599d2868a567a798075fe10be31a",
}


@pytest.mark.parametrize("job", sorted(OUTPUT_SHA256))
def test_output_bytes_are_pinned(job):
    code, out, err = run_cli(*job.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[job]


def test_unknown_log_level_is_one_usage_error():
    code, out, err = run_cli("chartable", "--gamma", "cyclic:3", "--n", "2", log="bogus")
    assert_one_usage_error(code, out, err, "SPINWREATH_LOG must name a log level")
    assert "'bogus'" in err


@pytest.mark.parametrize("level", ["debug", "Warning", "ERROR"])
def test_log_level_names_are_read_in_any_case(level):
    argv = ("chartable", "--gamma", "cyclic:3", "--n", "2")
    code, out, err = run_cli(*argv, log=level)
    assert code == 0 and "Traceback" not in err
    assert out == run_cli(*argv)[1]


def test_info_log_goes_to_stderr_and_leaves_the_document_alone():
    argv = ("chartable", "--gamma", "cyclic:3", "--n", "3")
    code, out, err = run_cli(*argv, log="INFO")
    assert code == 0
    assert out == run_cli(*argv)[1]
    assert err.splitlines() == [
        "INFO:spinwreath.qtable:chartable cyclic3 n=3: "
        "13 rows, 5 paired, 8 filled, 3 linear characters"]
    code, _, err = run_cli(*argv, "--check", log="INFO")
    assert code == 0
    assert "13 rows, 13 paired, 0 filled, 3 linear characters" in err
