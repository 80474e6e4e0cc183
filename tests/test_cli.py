import json

import pytest

from pipesim import cli

QUAD = """\
stage S1 { fn = "data + 2*sqr(orig)"; delay = 1; }
stage S2 { fn = "data + 4*orig";      delay = 1; }
stage S3 { fn = "data - 7";           delay = 1; }
pipeline = S1 >> S2 >> S3;
"""

LOOPED = """\
stage S1 { fn = "data + 1"; delay = 1; }
stage S2 { fn = "data";     delay = 1; }
stage S3 { fn = "data";     delay = 1; }
pipeline = S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2;
"""

FEEDBACK = """\
stage S1 { fn = "data + 1"; delay = 1; }
stage S2 { fn = "data";     delay = 1; }
pipeline = S1 >> S2 >> S1;
"""


@pytest.fixture
def write_file(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze ---------------------------------------------------------------------


def test_analyze_complex_pipeline_text(write_file, capsys):
    path = write_file("looped.pipe", LOOPED)
    code, out, err = invoke(capsys, "analyze", path)
    assert code == 0
    assert "forbidden latencies: 1 2 3 6" in out
    assert "collision vector: 1110010" in out
    assert "MAL: 4" in out
    assert "S1  X . . X . . X ." in out


def test_analyze_linear_pipeline(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    code, out, _ = invoke(capsys, "analyze", path)
    assert code == 0
    assert "forbidden latencies: (none)" in out
    assert "MAL: 1" in out


def test_analyze_json_format(write_file, capsys):
    path = write_file("looped.pipe", LOOPED)
    code, out, _ = invoke(capsys, "analyze", path, "--format", "json-like")
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == 1
    analysis = payload["pipelines"]["main"]
    assert analysis["forbidden_latencies"] == [1, 2, 3, 6]
    assert analysis["collision_vector"] == "1110010"
    assert analysis["mal"] == 4
    assert analysis["marks"]["S3"] == [2, 4, 5]


def test_analyze_rejects_parenthesized_expression(write_file, capsys):
    path = write_file("paren.pipe", QUAD.replace("S1 >> S2 >> S3;", "(S1 >> S2)*2;"))
    code, out, err = invoke(capsys, "analyze", path)
    assert code == 1
    assert "parentheses" in err
    assert out == ""


# -- run --------------------------------------------------------------------------


def test_run_quadratic_pipeline(write_file, capsys, tmp_path):
    path = write_file("quad.pipe", QUAD)
    trace = tmp_path / "trace.csv"
    code, out, err = invoke(
        capsys, "run", path, "--inputs", "0,1,2,3", "--trace", str(trace),
        "--format", "json-like",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["data"] for r in payload["results"]] == [-7, -1, 9, 23]
    assert [r["exit_ns"] - r["inject_ns"] for r in payload["results"]] == [3, 3, 3, 3]
    assert payload["stats"]["total_stalls"] == 0
    csv_text = trace.read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "id,inject_ns,exit_ns,orig,data"
    assert csv_text.splitlines()[1] == "0,0,3,0,-7"
    assert len(csv_text.splitlines()) == 5


def test_run_reports_greedy_interval(write_file, capsys):
    path = write_file("looped.pipe", LOOPED)
    code, out, _ = invoke(
        capsys, "run", path, "--inputs", ",".join(str(i) for i in range(20)),
        "--format", "json-like",
    )
    assert code == 0
    payload = json.loads(out)
    exits = [r["exit_ns"] for r in payload["results"]]
    deltas = [b - a for a, b in zip(exits, exits[1:])]
    assert deltas == [4] * 19


def test_run_fixed_forbidden_interval_warns(write_file, capsys):
    path = write_file("feedback.pipe", FEEDBACK)
    code, out, err = invoke(
        capsys, "run", path, "--inputs", "1,2,3,4,5,6", "--issue", "fixed:2",
        "--format", "json-like",
    )
    assert code == 0
    assert "warning" in err and "forbidden" in err
    payload = json.loads(out)
    assert payload["stats"]["total_stalls"] > 0


def test_run_inputs_from_file(write_file, capsys, tmp_path):
    path = write_file("quad.pipe", QUAD)
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("0\n1\n2\n3\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "run", path, "--inputs", str(inputs),
                          "--format", "json-like")
    assert code == 0
    assert len(json.loads(out)["results"]) == 4


def test_run_horizon_truncates_with_exit_code_3(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    code, out, _ = invoke(capsys, "run", path, "--inputs", "1,2,3,4", "--horizon", "2")
    assert code == 3
    assert "partial" in out


def test_run_bad_inputs_exit_1(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    code, _, err = invoke(capsys, "run", path, "--inputs", "1,hello")
    assert code == 1
    assert "hello" in err


@pytest.mark.parametrize(
    "inputs, bad", [("nan,1e308", "nan"), ("1,inf", "inf"), ("2,-1e400", "-1e400")]
)
def test_run_non_finite_inputs_exit_1(write_file, capsys, inputs, bad):
    path = write_file("quad.pipe", QUAD)
    code, out, err = invoke(capsys, "run", path, "--inputs", inputs, "--format", "json-like")
    assert code == 1
    assert out == ""
    assert f"input value {bad!r} is not finite" in err


def test_run_negative_horizon_exit_1(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    code, out, err = invoke(capsys, "run", path, "--inputs", "1,2", "--horizon", "-5")
    assert code == 1
    assert out == ""
    assert "horizon must be a non-negative number of ns, got -5" in err


def test_run_missing_inputs_flag_exits_1(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    code, _, _ = invoke(capsys, "run", path)
    assert code == 1


def test_run_issue_policy_file_default_and_override(write_file, capsys):
    path = write_file("fb.pipe", FEEDBACK + "issue = fixed:3;\n")
    code, out, err = invoke(capsys, "run", path, "--inputs", "1,2,3",
                            "--format", "json-like")
    assert code == 0
    assert json.loads(out)["issue"] == "fixed:3"
    code, out, _ = invoke(capsys, "run", path, "--inputs", "1,2,3",
                          "--issue", "eager", "--format", "json-like")
    assert json.loads(out)["issue"] == "eager"


def test_multi_function_pipelines_need_type(write_file, capsys):
    text = """
    stage A { fn = "data + 1"; delay = 1; }
    stage B { fn = "data * 2"; delay = 1; }
    pipeline double = A >> B;
    pipeline single = A;
    """
    path = write_file("multi.pipe", text)
    code, _, err = invoke(capsys, "run", path, "--inputs", "1")
    assert code == 1 and "--type" in err
    code, out, _ = invoke(capsys, "run", path, "--inputs", "1", "--type", "double",
                          "--format", "json-like")
    assert code == 0
    assert json.loads(out)["results"][0]["data"] == 2
    code, out, _ = invoke(capsys, "analyze", path)
    assert code == 0
    assert "pipeline double" in out and "pipeline single" in out


# -- elaborate ----------------------------------------------------------------------


def test_elaborate_writes_dot(write_file, capsys, tmp_path):
    path = write_file("looped.pipe", LOOPED)
    dot_path = tmp_path / "looped.dot"
    code, out, _ = invoke(capsys, "elaborate", path, "--dot", str(dot_path))
    assert code == 0
    dot = dot_path.read_text(encoding="utf-8")
    assert dot.count("shape=box") == 3
    assert dot.count("shape=circle") == 4


def test_elaborate_stdout_and_stability(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    first = invoke(capsys, "elaborate", path)
    second = invoke(capsys, "elaborate", path)
    assert first == second
    assert first[0] == 0
    assert '"entry" -> "S1";' in first[1]


# -- determinism ----------------------------------------------------------------------


def test_cli_invocations_are_byte_identical(write_file, capsys, tmp_path):
    quad = write_file("quad.pipe", QUAD)
    looped = write_file("looped.pipe", LOOPED)
    outputs = []
    for _ in range(2):
        trace = tmp_path / "t.csv"
        code, out, err = invoke(capsys, "run", quad, "--inputs", "0,1,2,3",
                                "--trace", str(trace))
        outputs.append((code, out, err, trace.read_bytes()))
    assert outputs[0] == outputs[1]
    runs = [invoke(capsys, "analyze", looped, "--format", "json-like") for _ in range(2)]
    assert runs[0] == runs[1]
