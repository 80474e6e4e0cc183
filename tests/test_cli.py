import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pipesim as ps
from pipesim import cli, report
from pipesim.policy import ISSUE_KINDS, JOIN_KINDS
from pipesim.report import canonical, run_report_mapping, trace_to_csv

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
    assert err == (
        "warning: fixed issue interval 2 collides with forbidden latency 2; "
        "expect structural stalls\n"
    )
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


def test_run_empty_inputs_exit_1(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    code, out, err = invoke(capsys, "run", path, "--inputs", "")
    assert (code, out, err) == (1, "", "error: no input values given\n")


def test_run_reads_a_long_inline_value_list(write_file, capsys):
    # Longer than a file name may be: it used to exit 1 with
    # "File name too long" while the CLI checked whether it was a path.
    path = write_file("quad.pipe", QUAD)
    values = ",".join(str(i) for i in range(120))
    assert len(values) > 255
    code, out, err = invoke(capsys, "run", path, "--inputs", values, "--format", "json-like")
    assert (code, err) == (0, "")
    assert json.loads(out)["stats"]["exited"] == 120


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


def test_run_unknown_type_exits_1(write_file, capsys):
    path = write_file("feedback.pipe", FEEDBACK)
    code, out, err = invoke(capsys, "run", path, "--inputs", "1", "--type", "nope")
    assert (code, out, err) == (1, "", "error: unknown pipeline type 'nope'; available: main\n")


def test_run_stage_overflow_exits_1(write_file, capsys):
    path = write_file("quad.pipe", QUAD)
    code, out, err = invoke(capsys, "run", path, "--inputs", "1e200,1", "--format", "json-like")
    assert (code, out, err) == (1, "", "error: stage S1, transaction 0: result inf is not finite\n")


def test_run_join_overflow_exits_1(write_file, capsys):
    text = """\
stage A { fn = "data + orig"; delay = 1; }
stage B { fn = "data"; delay = 1; }
stage C { fn = "data"; delay = 1; }
pipeline = A >> B + C;
join = sum;
"""
    path = write_file("fork.pipe", text)
    code, out, err = invoke(capsys, "run", path, "--inputs", "1,1.5e308", "--format", "json-like")
    assert (code, out) == (1, "")
    assert err == "error: join for transaction 1 at step 1: result inf is not finite\n"


def test_run_join_division_by_zero_names_join(write_file, capsys):
    text = """\
stage A { fn = "data + orig"; delay = 1; }
stage B { fn = "data"; delay = 1; }
stage C { fn = "data - orig"; delay = 1; }
pipeline = A >> B + C;
join = "dataL / dataR";
"""
    path = write_file("fork.pipe", text)
    code, out, err = invoke(capsys, "run", path, "--inputs", "2")
    assert (code, out) == (1, "")
    assert err == "error: join for transaction 0 at step 1: division by zero\n"


def test_unreadable_files_exit_1(write_file, capsys, tmp_path):
    code, out, err = invoke(capsys, "analyze", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    path = write_file("quad.pipe", QUAD)
    latin1 = tmp_path / "inputs.txt"
    latin1.write_bytes(b"1, 2, \xe93\n")
    code, out, err = invoke(capsys, "run", path, "--inputs", str(latin1))
    assert (code, out) == (1, "")
    assert err == f"error: {latin1}: not UTF-8 text (invalid continuation byte at byte 6)\n"

    latin1.rename(tmp_path / "latin1.pipe")
    code, out, err = invoke(capsys, "analyze", str(tmp_path / "latin1.pipe"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "not UTF-8 text" in err


def test_run_unwritable_trace_prints_no_report(write_file, capsys, tmp_path):
    path = write_file("quad.pipe", QUAD)
    trace = tmp_path / "missing" / "x.csv"
    for fmt in ("text", "json-like"):
        code, out, err = invoke(capsys, "run", path, "--inputs", "1,2",
                                "--trace", str(trace), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(trace)!r}\n"

    # A writable trace still goes out with a horizon-truncated run's exit code.
    trace = tmp_path / "x.csv"
    code, out, _ = invoke(capsys, "run", path, "--inputs", "1,2,3,4",
                          "--horizon", "2", "--trace", str(trace))
    assert code == 3 and "horizon reached" in out
    assert trace.read_text(encoding="utf-8").startswith("id,inject_ns,exit_ns,orig,data\n")


def test_json_report_without_trace_builds_no_csv(write_file, capsys, tmp_path, monkeypatch):
    path = write_file("looped.pipe", LOOPED)
    inputs = ",".join(str(i) for i in range(12))
    traces = []
    build = report.write_run_report

    def recorded(name, result, analysed, issue, out, csv_out=None):
        if csv_out is None:
            traces.append(None)
            return build(name, result, analysed, issue, out)
        buffer = io.StringIO()
        build(name, result, analysed, issue, out, buffer)
        traces.append(buffer.getvalue())
        csv_out.write(traces[-1])

    monkeypatch.setattr(report, "write_run_report", recorded)
    trace = tmp_path / "trace.csv"
    with_trace = invoke(capsys, "run", path, "--inputs", inputs, "--format", "json-like",
                        "--trace", str(trace))
    without = invoke(capsys, "run", path, "--inputs", inputs, "--format", "json-like")
    assert without == with_trace
    assert with_trace[0] == 0
    assert traces == [trace.read_text(encoding="utf-8"), None]


def test_text_and_json_reports_write_the_same_trace(write_file, capsys, tmp_path):
    path = write_file("quad.pipe", QUAD)
    traces = {}
    for fmt in ("text", "json-like"):
        trace = tmp_path / f"{fmt}.csv"
        code, out, err = invoke(capsys, "run", path, "--inputs", "0,1.5,-2,3e7",
                                "--issue", "fixed:2", "--format", fmt, "--trace", str(trace))
        assert (code, err) == (0, "")
        traces[fmt] = trace.read_text(encoding="utf-8")

    setup = ps.load_pipeline_file(path)
    route = setup.routes["main"]
    checked = ps.validate_config(route, setup.configs)
    result = ps.run(ps.elaborate(route, setup.decls, checked), checked, [0, 1.5, -2, 3e7],
                    issue=ps.IssueSpec.fixed(2))
    assert traces == {"text": trace_to_csv(result.trace), "json-like": trace_to_csv(result.trace)}


# The README's 8-step feedback route with the quad functions, as the
# feedback-greedy benchmark runs it.
FEEDBACK_ROUTE = QUAD.replace("S1 >> S2 >> S3;", "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2;")


class _HashingSink:
    """A stdout that hashes each write and keeps none of it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


# tracemalloc peak of the run below on CPython 3.11: 6.1 MiB when the report
# and the CSV were each rendered whole, 2.7-3.0 MiB streamed in 1,000-row
# chunks with a log of four entries per hop, 2.1-2.4 MiB in 256-row chunks
# with three entries per hop.
RUN_PEAK_CEILING = 2.6 * 2**20
FEEDBACK_VALUES = [(i * 389) % 1999 - 999 for i in range(4000)]


def feedback_run_argv(write_file, tmp_path):
    """``pipesim run`` of FEEDBACK_VALUES on the feedback route, json-like with a trace."""
    path = write_file("feedback.pipe", FEEDBACK_ROUTE)
    inputs = tmp_path / "inputs.txt"
    inputs.write_text("\n".join(map(str, FEEDBACK_VALUES)) + "\n", encoding="utf-8")
    return ["run", path, "--inputs", str(inputs), "--format", "json-like",
            "--trace", str(tmp_path / "trace.csv")]


def test_streamed_run_report_memory(write_file, tmp_path, monkeypatch):
    argv = feedback_run_argv(write_file, tmp_path)
    path, trace = argv[1], Path(argv[-1])
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0

    setup = ps.load_pipeline_file(path)
    route = setup.routes["main"]
    checked = ps.validate_config(route, setup.configs)
    result = ps.run(ps.elaborate(route, setup.decls, checked), checked,
                    [float(v) for v in FEEDBACK_VALUES])
    issue = ps.IssueSpec.greedy()
    expected = canonical(run_report_mapping("main", result, ps.analyze(route), issue)) + "\n"
    assert sink.digest.hexdigest() == hashlib.sha256(expected.encode("utf-8")).hexdigest()
    assert trace.read_text(encoding="utf-8") == trace_to_csv(result.trace)
    assert peak <= RUN_PEAK_CEILING, peak


# tracemalloc peak of the text run below on CPython 3.11: 2.71 MB when the
# text report and the CSV were each built whole, 2.1 MB in 256-row chunks
# (2.96 and 2.26 MB when the command first loads the modules it imports on use).
TEXT_RUN_PEAK_CEILING = 2.4 * 2**20


def test_streamed_text_report_memory(write_file, tmp_path, monkeypatch):
    argv = feedback_run_argv(write_file, tmp_path)
    argv[argv.index("json-like")] = "text"
    path, trace = argv[1], Path(argv[-1])
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0

    setup = ps.load_pipeline_file(path)
    route = setup.routes["main"]
    checked = ps.validate_config(route, setup.configs)
    result = ps.run(ps.elaborate(route, setup.decls, checked), checked,
                    [float(v) for v in FEEDBACK_VALUES])
    expected = report.run_report_text("main", result, ps.analyze(route), ps.IssueSpec.greedy())
    assert sink.digest.hexdigest() == hashlib.sha256(expected.encode("utf-8")).hexdigest()
    assert trace.read_text(encoding="utf-8") == trace_to_csv(result.trace)
    assert peak <= TEXT_RUN_PEAK_CEILING, peak


# Gen-0 collections of the command below, after a full collection: a count
# that is deterministic for one CPython build.  3 on CPython 3.11 when each
# report chunk held 1,000 row tuples, 1 with 256-row chunks.
RUN_GEN0_COLLECTIONS_CEILING = 1


def test_streamed_run_report_collections(write_file, tmp_path, monkeypatch):
    argv = feedback_run_argv(write_file, tmp_path)
    monkeypatch.setattr(sys, "stdout", _HashingSink())
    cli.main(argv)  # a first command loads the modules that it imports on use
    assert gc.isenabled(), "the count needs the collector on"
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    code = cli.main(argv)
    collections = gc.get_stats()[0]["collections"] - before
    assert code == 0
    assert collections <= RUN_GEN0_COLLECTIONS_CEILING, collections


@pytest.mark.parametrize("spec, message", [
    ("slow", "in --issue: col 1: expected greedy, eager or fixed:<interval>"),
    ("fixed", "in --issue: col 6: expected :, got end of input"),
    ("greedy:2", "in --issue: col 7: unexpected token ':'"),
    ("fixed:x", "in --issue: col 7: expected an issue interval, got 'x'"),
    ("fixed:2:3", "in --issue: col 8: unexpected token ':'"),
    ("fixed:0", "in --issue: col 7: fixed issue interval must be >= 1, got 0"),
])
def test_run_issue_flag_diagnostics(write_file, capsys, spec, message):
    path = write_file("quad.pipe", QUAD)
    assert invoke(capsys, "run", path, "--inputs", "1", "--issue", spec) == (
        1, "", f"error: {message}\n"
    )


def run_main(argv):
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def issue_files(tmp_path_factory):
    """A definition file without an issue setting, and a path for one with it."""
    home = tmp_path_factory.mktemp("issue")
    (home / "plain.pipe").write_text(QUAD, encoding="utf-8")
    return str(home / "plain.pipe"), home / "setting.pipe"


_ISSUE_PIECES = [*ISSUE_KINDS, *(kind[:n] for kind in ISSUE_KINDS for n in range(1, len(kind))),
                 ":", "0", "4", "12", "\u0663", "_", "+", "-", " ", "\n", "#", '"']


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_ISSUE_PIECES), max_size=6).map("".join))
@example("fixed:+4")
@example("fixed:1_000")
@example(" fixed:4")
@example("fixed : 4")
@example("greedy # note")
@example("fixed:\u0663")
def test_issue_flag_and_file_setting_agree(issue_files, text):
    """``--issue X`` and ``issue = X`` read one grammar: both run with the
    same issue policy, which the report prints, or both exit 1.  The newline
    keeps a comment in X from swallowing the ``;``."""
    plain, setting = issue_files
    setting.write_text(f"{QUAD}issue = {text}\n;\n", encoding="utf-8")
    flag_code, flag_out, _ = run_main(["run", plain, "--inputs", "1", "--issue", text])
    file_code, file_out, _ = run_main(["run", str(setting), "--inputs", "1"])
    assert flag_code == file_code in (0, 1)
    assert flag_out == file_out


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


SIGNAL_FORK = """\
stage S1 { fn = "data + orig"; delay = 1; }
stage S2 { fn = "data * 2";    delay = 1; }
stage S3 { fn = "data + 3";    delay = 1; channel = signal; }
stage S4 { fn = "data - 1";    delay = untimed; channel = signal; exec = reactive; }
pipeline = S1 >> S2 + S3 >> S4;
join = sum;
"""


def test_elaborate_draws_signal_channels_dashed(write_file, capsys):
    code, out, _ = invoke(capsys, "elaborate", write_file("signal.pipe", SIGNAL_FORK))
    assert code == 0
    edges = [line.strip() for line in out.splitlines() if "->" in line]
    assert edges == [
        '"entry" -> "S1";',
        '"S1" -> "r_S1";',
        '"S2" -> "r_S2";',
        '"S3" -> "r_S3" [style=dashed];',
        '"S4" -> "r_S4" [style=dashed];',
        '"r_S1" -> "S2";',
        '"r_S1" -> "S3" [style=dashed];',
        '"r_S2" -> "S4" [style=dashed];',
        '"r_S3" -> "S4" [style=dashed];',
        '"r_S4" -> "exit";',
    ]


def test_each_command_checks_its_stage_configs_once(write_file, capsys, monkeypatch):
    # elaborate and simulate.run use the CheckedConfig that the command built
    # as it is; they used to check it again.  Each check reads the route's
    # fork steps once.
    calls = 0
    fork_steps = ps.Route.fork_steps

    def counted(route):
        nonlocal calls
        calls += 1
        return fork_steps(route)

    monkeypatch.setattr(ps.Route, "fork_steps", counted)
    path = write_file("signal.pipe", SIGNAL_FORK)
    counts = {}
    for argv in (["run", path, "--inputs", "0,1,2"], ["elaborate", path]):
        calls = 0
        assert invoke(capsys, *argv)[0] == 0
        counts[argv[0]] = calls
    assert counts == {"run": 1, "elaborate": 1}


# -- determinism ----------------------------------------------------------------------


def test_cli_output_digests_pinned():
    """Every output byte of ``tests/cli_digests.py``'s 142 invocations: exit
    code, stdout, stderr and written files."""
    import cli_digests

    pinned = Path(__file__).with_name("cli_digests.txt").read_text(encoding="utf-8")
    assert cli_digests.digest_lines() == pinned.splitlines()


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


# -- diagnostics ----------------------------------------------------------------------

_A = 'stage A { fn = "data"; delay = 1; }\n'
_AB = _A + 'stage B { fn = "data"; delay = 1; }\n'

# Exact stderr text for malformed definition files; every one exits 1.
MALFORMED_FILES = [
    (_AB + "pipeline = ;\n", "line 3, col 12: expected a stage name, got end of input"),
    (_AB + "pipeline =", "line 3, col 11: missing pipeline expression"),
    (_AB + "pipeline = A >>   ;\n", "line 3, col 16: expected a stage name, got end of input"),
    (_AB + "pipeline = A >>\n", "line 4, col 1: missing ';' after pipeline expression"),
    (_AB + "pipeline = A >> {B};\n", "line 3, col 17: unexpected character '{'"),
    (_AB + "pipeline = A >> (A);\n",
     "line 3, col 17: parentheses are not supported in pipeline expressions"),
    (_AB + "pipeline = (A) >> $;\n", "line 3, col 19: unexpected character '$'"),
    (_AB + 'pipeline = A >> "x";\n', "line 3, col 17: unexpected character '\"'"),
    (_AB + "pipeline = A >> >> {;\n", "line 3, col 20: unexpected character '{'"),
    (_AB + "pipeline = A >> B:2;\n", "line 3, col 18: unexpected character ':'"),
    (_AB + "pipeline = A >>\n    B >> A*0;\n", "line 4, col 12: repeat count must be >= 1, got 0"),
    (_AB + "pipeline = A >> B*;\n", "line 3, col 19: expected a repeat count, got end of input"),
    (_AB + "pipeline = A + A;\n", "line 3, col 14: duplicate stage 'A' in fork"),
    (_AB + "pipeline = A >> Zed;\n", "line 3, col 17: unknown stage 'Zed'"),
    (_AB + "pipeline = A B;\n", "line 3, col 14: unexpected token 'B'"),
    (_AB + "pipeline = A >> B\n", "line 4, col 1: missing ';' after pipeline expression"),
    (_A + 'stage B { fn = "data +* 2"; delay = 1; }\npipeline = A >> B;\n',
     "line 2, col 16: in fn of stage 'B': col 7: expected a value, got '*'"),
    (_AB + 'pipeline = A + B;\njoin = "dataL +* dataR";\n',
     "line 4, col 8: in join expression: col 8: expected a value, got '*'"),
    (_AB + 'pipeline = A + B;\njoin = "data + 1";\n',
     "line 4, col 8: in join expression: col 1: unknown variable 'data'"),
    (_A + "pipeline = A;\nissue = fixed:x;\n",
     "line 3, col 15: expected an issue interval, got 'x'"),
    ('stage A { fn = "data # x"; delay = 1; }\npipeline = A;\n',
     "line 1, col 16: in fn of stage 'A': col 6: unexpected character '#'"),
    # A '#' after an escaped quote is inside the string, not a comment.
    ('stage A { fn = "data + \\"#\\""; delay = 1; }\npipeline = A;\n',
     "line 1, col 16: in fn of stage 'A': col 8: unexpected character '\"'"),
    (_A.rstrip("\n") + " @\npipeline = A;\n", "line 1, col 37: unexpected character '@'"),
    # The cases of test_fileformat.test_malformed_files_report_position.
    ("pipeline = A;", "line 1, col 1: no stage declarations"),
    (_A, "line 1, col 1: no pipeline expression"),
    ("stage A { delay = 1; }\npipeline = A;", "line 1, col 7: stage 'A' is missing fn"),
    ('stage A { fn = "data"; }\npipeline = A;', "line 1, col 7: stage 'A' is missing delay"),
    ('stage A { fn = "data"; delay = x; }\npipeline = A;',
     "line 1, col 32: delay must be an integer or 'untimed'"),
    ('stage A { fn = "data"; delay = 1; speed = 3; }\npipeline = A;',
     "line 1, col 35: unknown stage setting 'speed'"),
    (_A + _A + "pipeline = A;", "line 2, col 7: duplicate stage 'A'"),
    (_A + "pipeline = A;\npipeline = A;", "line 3, col 1: duplicate pipeline 'main'"),
    (_A + "pipeline = A\n", "line 3, col 1: missing ';' after pipeline expression"),
    ('stage A { fn = "data +"; delay = 1; }\npipeline = A;',
     "line 1, col 16: in fn of stage 'A': col 7: expected a value, got end of input"),
    (_A + "pipeline = A;\njoin = sideways;",
     "line 3, col 8: join must be left, right, sum or a quoted expression"),
    (_A + "pipeline = A;\nissue = slow;",
     "line 3, col 9: expected greedy, eager or fixed:<interval>"),
    (_A + "pipeline = A;\nissue = fixed:0;\n",
     "line 3, col 15: fixed issue interval must be >= 1, got 0"),
    # Stage blocks.
    ("stage { fn = \"data\"; delay = 1; }\npipeline = A;\n",
     "line 1, col 7: expected a stage name, got '{'"),
    ('stage A fn = "data"; delay = 1; }\npipeline = A;\n', "line 1, col 9: expected {, got 'fn'"),
    ("stage A { 3 = 1; }\npipeline = A;\n",
     "line 1, col 11: expected a setting name (fn, delay, channel, exec), got '3'"),
    ('stage A { fn = "data"; delay = 1;',
     "line 1, col 34: expected a setting name (fn, delay, channel, exec), got end of file"),
    ('stage A { fn "data"; delay = 1; }\npipeline = A;\n',
     "line 1, col 14: expected =, got '\"data\"'"),
    ('stage A { fn = "data" delay = 1; }\npipeline = A;\n', "line 1, col 23: expected ;, got 'delay'"),
    ('stage A { fn = "data"; delay = 1; fn = "data"; }\npipeline = A;\n',
     "line 1, col 35: duplicate setting 'fn'"),
    ('stage A { fn = "data"; delay =', "line 1, col 31: unterminated stage block"),
    ("stage A { fn = data; delay = 1; }\npipeline = A;\n",
     "line 1, col 16: fn must be a quoted expression"),
    ('stage A { fn = "data"; delay = 1; channel = fast; }\npipeline = A;\n',
     "line 1, col 45: channel must be 'blocking' or 'signal'"),
    ('stage A { fn = "data"; delay = 1; channel = "signal"; }\npipeline = A;\n',
     "line 1, col 45: channel must be 'blocking' or 'signal'"),
    ('stage A { fn = "data"; delay = 1; exec = 2; }\npipeline = A;\n',
     "line 1, col 42: exec must be 'loop' or 'reactive'"),
    # File-level settings.
    (_A + "pipeline = A;\nspeed = 3;\n",
     "line 3, col 1: expected 'stage', 'pipeline', 'join' or 'issue', got 'speed'"),
    (_A + "pipeline A;\n", "line 2, col 11: expected =, got ';'"),
    (_AB + "pipeline = A + B;\njoin = 3;\n",
     "line 4, col 8: expected left, right, sum or a quoted expression"),
    (_AB + "pipeline = A + B;\njoin = custom;\n",
     "line 4, col 8: join must be left, right, sum or a quoted expression"),
    (_AB + "pipeline = A + B;\njoin left;\n", "line 4, col 6: expected =, got 'left'"),
    (_AB + "pipeline = A + B;\njoin = sum\n", "line 5, col 1: expected ;, got end of file"),
    (_AB + "pipeline = A + B;\njoin = sum;\njoin = left;\n", "line 5, col 1: duplicate join setting"),
    (_A + "pipeline = A;\nissue = fixed;\n", "line 3, col 14: expected :, got ';'"),
    (_A + "pipeline = A;\nissue greedy;\n", "line 3, col 7: expected =, got 'greedy'"),
    (_A + "pipeline = A;\nissue = eager;\nissue = greedy;\n",
     "line 4, col 1: duplicate issue setting"),
    # A route has at most 4,096 steps.
    (_A + "pipeline = A*4097;\n", "line 2, col 14: repeat count must be <= 4096, got 4097"),
    # int() reads at most 4,300 digits: one reader names that limit for every number.
    ('stage A { fn = "data"; delay = ' + "1" * 4301 + "; }\npipeline = A;\n",
     "line 1, col 32: integer of 4301 digits is longer than the limit of 4300 digits"),
    (_A + "pipeline = A*" + "1" * 4301 + ";\n",
     "line 2, col 14: integer of 4301 digits is longer than the limit of 4300 digits"),
    (_A + "pipeline = A;\nissue = fixed:" + "1" * 4301 + ";\n",
     "line 3, col 15: integer of 4301 digits is longer than the limit of 4300 digits"),
]


@pytest.mark.parametrize("text, message", MALFORMED_FILES)
def test_malformed_file_diagnostics(write_file, capsys, text, message):
    path = write_file("bad.pipe", text)
    code, out, err = invoke(capsys, "analyze", path)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("settings, message", [
    ("delay = untimed; exec = reactive;", "reactive execution requires signal channels"),
    ("delay = 1; channel = signal; exec = reactive;",
     "reactive execution cannot delay (got timed(1))"),
])
def test_conflicting_stage_settings_fail_at_the_stage_in_every_command(
    write_file, capsys, settings, message
):
    # analyze used to accept the stage that run and elaborate rejected.
    path = write_file("bad.pipe", f'stage A {{ fn = "data"; {settings} }}\npipeline = A;\n')
    expected = (1, "", f"error: line 1, col 7: stage 'A': {message}\n")
    assert invoke(capsys, "analyze", path) == expected
    assert invoke(capsys, "run", path, "--inputs", "1") == expected
    assert invoke(capsys, "elaborate", path) == expected


def test_readme_lists_the_policy_words():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def words(before, after):
        # The one place the README lists a setting's words as a|b|...
        (found,) = re.findall(before + r"(\w+(?:\|\w+)+)" + after, readme)
        return tuple(found.split("|"))

    assert words("`channel = ", ";`") == tuple(kind.value for kind in ps.ChannelKind)
    assert words("`exec = ", ";`") == tuple(kind.value for kind in ps.ExecKind)
    assert words("`join = ", r'\|"<expr>";`') == JOIN_KINDS[:-1]
    assert words("`issue = ", ":<interval>;`") == ISSUE_KINDS
    assert words("--issue ", r":<interval>\]") == ISSUE_KINDS


def _one_stage(fn):
    return f'stage A {{ fn = "{fn}"; delay = 1; }}\npipeline = A;\n'


def test_deep_functions_run_or_fail_with_a_position(write_file, capsys):
    # A chain of 1,001 terms is 1,000 operations deep, the README's limit.
    chain = " + ".join(["orig"] * 1001)
    code, out, err = invoke(
        capsys, "run", write_file("chain.pipe", _one_stage(chain)),
        "--inputs", "1.5", "--format", "json-like",
    )
    assert (code, err) == (0, "")
    assert '"data": 1501.5,' in out
    # Operator k of the chain sits at offset 5 + 7 * (k - 1).
    longer = chain + " + orig"
    cases = [
        (longer, "col 7006: expression is more than 1000 operations deep"),
        ("(" * 65 + "orig" + ")" * 65, "col 65: expression nests more than 64 levels deep"),
        ("-" * 400 + "orig", "col 65: expression nests more than 64 levels deep"),
        ("sqr(" * 400 + "orig" + ")" * 400, "col 257: expression nests more than 64 levels deep"),
    ]
    for fn, message in cases:
        code, out, err = invoke(capsys, "run", write_file("deep.pipe", _one_stage(fn)),
                                "--inputs", "1")
        assert (code, out, err) == (1, "", f"error: line 1, col 16: in fn of stage 'A': {message}\n")


def test_comments_inside_a_multi_line_pipeline(write_file, capsys):
    text = (
        _A + "# a note with \"quotes and (parens)\n"
        'stage B { fn = "data"; delay = 1; }  # trailing\n'
        "pipeline = A # first (x) ;\n"
        "  >> B;  # then B\n"
    )
    code, out, err = invoke(capsys, "analyze", write_file("commented.pipe", text))
    assert (code, err) == (0, "")
    assert out.startswith("pipeline main: A B  (2 steps)\n")


def test_output_does_not_depend_on_hash_seed(tmp_path):
    pipe = tmp_path / "fork.pipe"
    pipe.write_text(SIGNAL_FORK, encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    commands = [
        ["analyze", str(pipe), "--format", "json-like"],
        ["run", str(pipe), "--inputs", "0,1,2,3,4,5", "--format", "json-like",
         "--trace", str(tmp_path / "trace.csv")],
        ["elaborate", str(pipe)],
    ]
    seen = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "pipesim.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            outputs.append((proc.returncode, proc.stdout, proc.stderr))
        outputs.append((tmp_path / "trace.csv").read_text(encoding="utf-8"))
        seen.append(outputs)
    assert all(codes == 0 for codes, _, _ in seen[0][:3])
    assert all(outputs == seen[0] for outputs in seen[1:])


# -- help and usage ---------------------------------------------------------------------

_RUN_HELP = """\
usage: pipesim run [-h] --inputs INPUTS [--issue ISSUE] [--horizon HORIZON]
                   [--trace TRACE] [--format {text,json-like}]
                   [--type TXN_TYPE]
                   file

positional arguments:
  file                  pipeline definition file

options:
  -h, --help            show this help message and exit
  --inputs INPUTS       comma separated orig values, or a path to a file of
                        values
  --issue ISSUE         greedy, eager or fixed:<interval>
  --horizon HORIZON     stop after this many ns
  --trace TRACE         write the CSV transaction trace here
  --format {text,json-like}
  --type TXN_TYPE       pipeline name to run
"""

# (argv, exit code, stdout, stderr) at an 80-column terminal.
HELP_AND_USAGE = [
    (["-h"], 0, """\
usage: pipesim [-h] {analyze,run,elaborate} ...

Command-line front end.

positional arguments:
  {analyze,run,elaborate}
    analyze             derive scheduling quantities
    run                 simulate transactions through the pipeline
    elaborate           emit the module graph as DOT

options:
  -h, --help            show this help message and exit
""", ""),
    (["analyze", "-h"], 0, """\
usage: pipesim analyze [-h] [--format {text,json-like}] file

positional arguments:
  file                  pipeline definition file

options:
  -h, --help            show this help message and exit
  --format {text,json-like}
""", ""),
    (["run", "-h"], 0, _RUN_HELP, ""),
    (["elaborate", "-h"], 0, """\
usage: pipesim elaborate [-h] [--dot DOT] [--type TXN_TYPE] file

positional arguments:
  file             pipeline definition file

options:
  -h, --help       show this help message and exit
  --dot DOT        write DOT here instead of stdout
  --type TXN_TYPE  pipeline name to elaborate
""", ""),
    ([], 1, "", "pipesim: error: the following arguments are required: command\n"),
    (["check", "quad.pipe"], 1, "", "pipesim: error: argument command: invalid choice: "
     "'check' (choose from 'analyze', 'run', 'elaborate')\n"),
    (["run", "quad.pipe"], 1, "",
     "pipesim run: error: the following arguments are required: --inputs\n"),
    (["analyze", "quad.pipe", "--format", "yaml"], 1, "", "pipesim analyze: error: argument "
     "--format: invalid choice: 'yaml' (choose from 'text', 'json-like')\n"),
    (["run", "quad.pipe", "--inputs", "1", "--horizon", "x"], 1, "",
     "pipesim run: error: argument --horizon: invalid int value: 'x'\n"),
    (["run", "quad.pipe", "--inputs", "1", "--t", "x"], 1, "",
     "pipesim run: error: ambiguous option: --t could match --trace, --type\n"),
    (["elaborate", "quad.pipe", "extra.pipe"], 1, "",
     "pipesim: error: unrecognized arguments: extra.pipe\n"),
    (["run", "quad.pipe", "--inputs"], 1, "",
     "pipesim run: error: argument --inputs: expected one argument\n"),
]


@pytest.mark.parametrize("argv, code, out, err", HELP_AND_USAGE)
def test_help_and_usage_text_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, *argv) == (code, out, err)


# -- fast path ---------------------------------------------------------------------------

_FLAGS = ["--format", "--inputs", "--issue", "--horizon", "--trace", "--type", "--dot"]
_VALUES = ["quad.pipe", "x", "1,2", "", "-1", "-x", "--", "+5", "5", "\u0663", "yaml", "json-like",
           "text", "greedy", "fixed:3"]
_TOKENS = [
    "analyze", "run", "elaborate", "-h", "--help", "--", "-",
    *_FLAGS, *(flag[:n] for flag in _FLAGS for n in range(3, len(flag))),
    *(f"{flag}={value}" for flag in _FLAGS for value in ("1,2", "", "-1", "5", "json-like")),
    *_VALUES,
]


_COMMAND_FLAGS = {"analyze": ["--format"], "elaborate": ["--dot", "--type"],
                  "run": ["--inputs", "--issue", "--horizon", "--trace", "--format", "--type"]}
_FLAG_VALUES = {"--format": ["text", "json-like", "yaml", "-1"],
                "--horizon": ["5", "+5", "\u0663", "x", "", "-1"]}


@st.composite
def command_lines(draw):
    """0-8 tokens of the vocabulary, or a command, a file and up to three
    pairs of a flag, mostly of that command, and a value; the flags are
    distinct in half of them."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=8))
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command] + ["--dot"]), max_size=3,
                          unique=draw(st.booleans())))
    if command == "run" and draw(st.booleans()):
        flags = ["--inputs", *flags[:2]]
    argv = [command, draw(st.sampled_from(_VALUES))]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES.get(flag, _VALUES)))]
    return argv


def parse_with_argparse(argv):
    """argparse's namespace for ``argv`` as a dict, or None if it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example(["run", "quad.pipe", "--inputs", "1,2", "--horizon", "+5", "--format", "json-like"])
@example(["analyze", "", "--format", "text"])
@example(["run", "x", "--horizon", "\u0663", "--inputs", ""])
def test_fast_path_agrees_with_argparse(argv):
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == parse_with_argparse(argv)


@pytest.mark.parametrize("argv, fast", [
    (["analyze", "quad.pipe"], True),
    (["run", "quad.pipe", "--inputs", "0,1", "--issue", "fixed:3", "--horizon", "9",
      "--trace", "t.csv", "--format", "json-like", "--type", "long"], True),
    (["elaborate", "quad.pipe", "--type", "long", "--dot", "g.dot"], True),
    (["analyze", "quad.pipe", "--form", "json-like"], False),
    (["run", "quad.pipe", "--inputs=0,1"], False),
    (["analyze", "--format", "json-like", "quad.pipe"], False),
    (["analyze", "quad.pipe", "--format", "text", "--format", "json-like"], False),
    (["run", "quad.pipe", "--inputs", "1", "--horizon", "-1"], False),
    (["run", "quad.pipe", "--inputs", "1", "--horizon", "x"], False),
    (["analyze", "quad.pipe", "--format", "yaml"], False),
    (["run", "quad.pipe"], False),
    (["analyze", "quad.pipe", "--dot", "g.dot"], False),
    (["run", "quad.pipe", "--inputs", "1", "-h"], False),
])
def test_fast_path_reads_only_well_formed_command_lines(argv, fast):
    """The common forms skip argparse; every other form is left to it."""
    namespace = cli._parse_fast(argv)
    if fast:
        assert vars(namespace) == parse_with_argparse(argv)
    else:
        assert namespace is None


# -- entry points ------------------------------------------------------------------


def looped_analysis_text() -> str:
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))
    return report.analysis_text("main", ps.analyze(route, decls))


SRC = str(Path(__file__).resolve().parent.parent / "src")
CONSOLE_MAIN = ["-c", "from pipesim.cli import console_main; console_main()"]
MODULE = ["-m", "pipesim.cli"]  # what the ``pipesim`` script runs, via console_main


def child(entry, *argv, close="", **kwargs):
    """``subprocess.run`` of ``python <entry> <argv>`` with this checkout's ``src`` first.

    ``close``, a shell redirection such as ``2>&-``, closes a stream before start-up.
    """
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = ["sh", "-c", f'exec "$@" {close}', "sh", sys.executable, *entry, *argv]
    return subprocess.run(command, env=env, timeout=60, **kwargs)


def test_console_main_exits_with_the_command_code(write_file):
    proc = child(CONSOLE_MAIN, "analyze", write_file("looped.pipe", LOOPED), capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, looped_analysis_text().encode(), b"")


def test_cli_module_runs_as_a_script(write_file):
    proc = child(MODULE, "analyze", write_file("looped.pipe", LOOPED), capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, looped_analysis_text().encode(), b"")


def test_console_main_in_the_test_process_is_refused(write_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pipesim", "analyze", write_file("looped.pipe", LOOPED)])
    with pytest.raises(AssertionError, match=r"os\._exit\(0\) called in the test process"):
        cli.console_main()
    assert capsys.readouterr() == (looped_analysis_text(), "")


def test_a_failed_flush_in_the_test_process_goes_to_sys_exit(write_file, monkeypatch):
    class Unflushable(io.StringIO):
        def flush(self):
            raise OSError("flush failed")

    stdout = Unflushable()
    monkeypatch.setattr(sys, "argv", ["pipesim", "analyze", write_file("looped.pipe", LOOPED)])
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert (exc.value.code, stdout.getvalue()) == (0, looped_analysis_text())


# No netlist elaborated from a file deadlocks, so the exit-2 case makes
# ``simulate.run`` raise, in process and in the child alike.
_DEADLOCK = "deadlock: forced for the exit path"
_DEADLOCKED = ["-c", f"""\
from pipesim import cli, engine, simulate
def run(*args, **kwargs):
    raise engine.DeadlockError({_DEADLOCK!r})
simulate.run = run
cli.console_main()
"""]
_CHILD_CASES = [
    (MODULE, ["analyze", "quad.pipe"]),
    (MODULE, ["run", "quad.pipe", "--inputs", "1,hello"]),
    (_DEADLOCKED, ["run", "quad.pipe", "--inputs", "1"]),
    (MODULE, ["run", "quad.pipe", "--inputs", "1,2,3,4", "--horizon", "2"]),
    (MODULE, ["run", "--help"]),
    (MODULE, ["run", "quad.pipe"]),
    (MODULE, ["run", "feedback.pipe", "--inputs", "inputs.txt", "--format", "json-like",
              "--trace", "trace.csv"]),
]


def test_a_child_ends_as_cli_main_does_in_process(tmp_path, monkeypatch):
    """Exit code, stdout, stderr and written files; stdout goes to a file."""
    from pipesim import engine, simulate

    work = tmp_path / "work"
    work.mkdir()
    (work / "quad.pipe").write_text(QUAD, encoding="utf-8")
    (work / "feedback.pipe").write_text(LOOPED, encoding="utf-8")
    (work / "inputs.txt").write_text("".join(f"{i % 97}\n" for i in range(4000)), encoding="utf-8")
    monkeypatch.chdir(work)
    monkeypatch.setenv("COLUMNS", "80")

    def written(before):
        files = {path.name: path.read_bytes() for path in work.iterdir() if path.name not in before}
        for name in files:
            (work / name).unlink()
        return files

    def deadlocked(*args, **kwargs):
        raise engine.DeadlockError(_DEADLOCK)

    seen = []
    for entry, argv in _CHILD_CASES:
        before = set(os.listdir(work))
        out, err = io.StringIO(), io.StringIO()
        with monkeypatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
            if entry is _DEADLOCKED:
                patch.setattr(simulate, "run", deadlocked)
            code = cli.main(argv)
        in_process = (argv, code, out.getvalue().encode(), err.getvalue().encode(), written(before))
        with open(tmp_path / "stdout", "wb") as stdout:
            proc = child(entry, *argv, cwd=work, stdout=stdout, stderr=subprocess.PIPE)
        in_child = (argv, proc.returncode, (tmp_path / "stdout").read_bytes(), proc.stderr,
                    written(before))
        assert in_child == in_process
        seen.append(in_child)
    assert [code for _, code, *_ in seen] == [0, 1, 2, 3, 0, 1, 0]
    _, _, report_bytes, _, files = seen[-1]
    assert len(report_bytes) > 500_000 and files["trace.csv"].count(b"\n") == 4001


def test_closed_standard_streams_in_process(write_file, tmp_path, monkeypatch, capsys):
    quad = write_file("quad.pipe", QUAD)
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["elaborate", quad]) == 1
    assert capsys.readouterr().err == "error: stdout is closed\n"
    monkeypatch.setattr(sys, "stderr", None)
    assert cli.main(["analyze", str(tmp_path / "absent.pipe")]) == 1
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def test_a_broken_or_closed_stream_ends_as_it_did_before(write_file, tmp_path, capsys):
    """A stdout reader that goes away ends as the interpreter's own exit left
    it.  A closed stderr drops diagnostics, and a command whose report finds
    stdout closed exits 1 with one line on stderr."""
    quad = write_file("quad.pipe", QUAD)
    inputs = write_file("inputs.txt", "".join(f"{i}\n" for i in range(4000)))
    head = subprocess.Popen(["head", "-c", "10"], stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
    proc = child(MODULE, "run", quad, "--inputs", inputs, "--format", "json-like",
                 stdout=head.stdin, stderr=subprocess.PIPE)
    head.stdin.close()
    head.wait(timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"error: [Errno 32] Broken pipe\n")

    # With stderr closed, argparse and the CLI drop their messages.
    proc = child(MODULE, "run", quad, close="2>&-", stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (1, b"")
    proc = child(MODULE, "analyze", str(tmp_path / "absent.pipe"), close="2>&-",
                 stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (1, b"")
    looped = write_file("looped.pipe", LOOPED)
    assert cli.main(["run", looped, "--inputs", "1,2", "--issue", "fixed:1"]) == 0
    warned = capsys.readouterr()
    assert warned.err.startswith("warning: ")
    proc = child(MODULE, "run", looped, "--inputs", "1,2", "--issue", "fixed:1", close="2>&-",
                 stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (0, warned.out.encode())

    closed = [["analyze", quad], ["analyze", quad, "--format", "json-like"],
              ["run", quad, "--inputs", "1,2"],
              ["run", quad, "--inputs", "1,2", "--format", "json-like", "--trace", "t.csv"],
              ["elaborate", quad]]
    for argv in closed:
        proc = child(MODULE, *argv, close=">&-", stderr=subprocess.PIPE, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (1, b"error: stdout is closed\n"), argv
    assert not (tmp_path / "t.csv").exists()
    proc = child(MODULE, "elaborate", quad, "--dot", "quad.dot", close=">&-",
                 stderr=subprocess.PIPE, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert cli.main(["elaborate", quad]) == 0
    assert (tmp_path / "quad.dot").read_text(encoding="utf-8") == capsys.readouterr().out
