import random
import sys

import pytest

import pipesim as ps

QUAD = """\
# computes 2x^2 + 4x - 7
stage S1 { fn = "data + 2*sqr(orig)"; delay = 1; }
stage S2 { fn = "data + 4*orig";      delay = 1; }
stage S3 { fn = "data - 7";           delay = 1; }
pipeline = S1 >> S2 >> S3;
"""


def test_parses_stage_blocks_and_pipeline():
    setup = ps.parse_pipeline_text(QUAD)
    assert setup.decls.names() == ("S1", "S2", "S3")
    assert list(setup.pipelines) == ["main"]
    assert len(setup.routes["main"]) == 3
    cfg = setup.configs[setup.decls["S1"]]
    assert cfg.timing.delay == 1
    assert cfg.channels is ps.ChannelKind.BLOCKING
    assert cfg.exec is ps.ExecKind.LOOP


def test_optional_settings_and_policies():
    text = """
    stage A { fn = "data"; delay = untimed; channel = signal; exec = reactive; }
    stage B { fn = "data"; delay = 2; }
    pipeline = A >> B;
    join = sum;
    issue = fixed:3;
    """
    setup = ps.parse_pipeline_text(text)
    cfg = setup.configs[setup.decls["A"]]
    assert cfg.timing.is_untimed
    assert cfg.channels is ps.ChannelKind.SIGNAL
    assert cfg.exec is ps.ExecKind.REACTIVE
    assert setup.join.kind == "sum"
    assert setup.issue == ps.IssueSpec.fixed(3)


def test_custom_join_expression():
    text = QUAD + 'join = "dataL - dataR + orig";\n'
    setup = ps.parse_pipeline_text(text)
    assert setup.join.kind == "custom"
    assert setup.join.merge(1, 10, 4) == 7


def test_multiple_named_pipelines():
    text = """
    stage A { fn = "data"; delay = 1; }
    stage B { fn = "data"; delay = 1; }
    pipeline decode = A >> B;
    pipeline execute = B >> A >> B;
    """
    setup = ps.parse_pipeline_text(text)
    assert list(setup.pipelines) == ["decode", "execute"]
    assert len(setup.routes["execute"]) == 3


def test_comments_do_not_disturb_positions():
    text = 'stage A { fn = "data"; delay = 1; }\n# comment\npipeline = A >> Zed;\n'
    with pytest.raises(ps.PipelineFileError) as exc:
        ps.parse_pipeline_text(text)
    assert exc.value.line == 3
    assert "Zed" in str(exc.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("pipeline = A;", "no stage declarations"),
        ('stage A { fn = "data"; delay = 1; }', "no pipeline expression"),
        ('stage A { delay = 1; }\npipeline = A;', "missing fn"),
        ('stage A { fn = "data"; }\npipeline = A;', "missing delay"),
        ('stage A { fn = "data"; delay = x; }\npipeline = A;', "delay must be"),
        ('stage A { fn = "data"; delay = 1; speed = 3; }\npipeline = A;', "unknown stage setting"),
        ('stage A { fn = "data"; delay = 1; }\nstage A { fn = "data"; delay = 1; }\npipeline = A;', "duplicate stage"),
        ('stage A { fn = "data"; delay = 1; }\npipeline = A;\npipeline = A;', "duplicate pipeline"),
        ('stage A { fn = "data"; delay = 1; }\npipeline = A\n', "missing ';'"),
        ('stage A { fn = "data +"; delay = 1; }\npipeline = A;', "in fn of stage"),
        ('stage A { fn = "data"; delay = 1; }\npipeline = A;\njoin = sideways;', "join must be"),
        ('stage A { fn = "data"; delay = 1; }\npipeline = A;\nissue = slow;', "greedy, eager or fixed"),
    ],
)
def test_malformed_files_report_position(text, fragment):
    with pytest.raises(ps.PipelineFileError) as exc:
        ps.parse_pipeline_text(text)
    assert fragment in str(exc.value)
    assert exc.value.line >= 1 and exc.value.column >= 1


def test_parse_error_inside_expression_maps_to_file_position():
    text = 'stage A { fn = "data"; delay = 1; }\npipeline = A >> (A);\n'
    with pytest.raises(ps.PipelineFileError) as exc:
        ps.parse_pipeline_text(text)
    assert exc.value.line == 2
    assert "parentheses" in str(exc.value)


def test_load_pipeline_file(tmp_path):
    path = tmp_path / "quad.pipe"
    path.write_text(QUAD, encoding="utf-8")
    setup = ps.load_pipeline_file(path)
    assert list(setup.pipelines) == ["main"]


def sparse_file(length: int, changes: int) -> str:
    """A file of ``length`` stages over the route sparse(length, changes):
    distinct single-stage steps, then ``changes`` times a seeded pick of two
    steps sets the later one to the earlier one's stage."""
    steps = [f"S{i}" for i in range(length)]
    rng = random.Random(length)
    for _ in range(changes):
        a, b = rng.sample(range(length), 2)
        steps[max(a, b)] = steps[min(a, b)]
    blocks = "".join(f'stage S{i} {{ fn = "data + {i + 1}*orig"; delay = 1; }}\n'
                     for i in range(length))
    return f"{blocks}pipeline = {' >> '.join(steps)};\n"


# Python and builtin calls of one warm set-up of a sparse(22,3) file, as the
# benchmark's set-up child makes it: a count that does not depend on the
# host.  CPython 3.11 counted 7,434 with a NamedTuple token, a record
# constructor that checked each argument and ``typing.Iterable`` checks, and
# 6,423 with tuple tokens built by ``tuple.__new__``, records bound directly
# and ``collections.abc`` checks; the ceiling leaves about 2% over that.
SETUP_CALLS_CEILING = 6_550


def test_calls_of_one_setup_of_a_sparse_file(tmp_path):
    path = tmp_path / "sparse.pipe"
    path.write_text(sparse_file(22, 3), encoding="utf-8")

    def setup():
        loaded = ps.load_pipeline_file(path)
        for route in loaded.routes.values():
            ps.validate_config(route, loaded.configs, join=loaded.join)
            ps.elaborate(route, loaded.decls)

    setup()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        setup()
    finally:
        sys.setprofile(None)
    assert calls <= SETUP_CALLS_CEILING, calls
