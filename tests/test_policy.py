import builtins
import re
import struct
import sys

import pytest

import pipesim as ps


@pytest.fixture
def decls():
    return ps.declare_stages(["S1", "S2", "S3", "S4"])


def quad_configs(decls, timing=None):
    timing = timing or ps.TimingSpec.timed(1)
    return [
        ps.StageConfig(decls["S1"], ps.parse_function("data + 2*sqr(orig)"), timing=timing),
        ps.StageConfig(decls["S2"], ps.parse_function("data + 4*orig"), timing=timing),
        ps.StageConfig(decls["S3"], ps.parse_function("data - 7"), timing=timing),
    ]


# -- function expressions ----------------------------------------------------


def test_eval_square_function():
    fn = ps.parse_function("data + 2*sqr(orig)")
    assert fn(2, 0) == 8


def test_eval_identity():
    fn = ps.parse_function("data")
    assert fn(99, 5.5) == 5.5


def test_eval_subtraction():
    fn = ps.parse_function("data - 7")
    assert fn(2, 16) == 9


def test_eval_precedence_and_unary_minus():
    fn = ps.parse_function("-data + 2*3")
    assert fn(0, 1) == 5


def test_eval_division_by_zero():
    fn = ps.parse_function("orig / data")
    with pytest.raises(ps.FunctionEvalError, match="division by zero"):
        fn(1, 0)


def test_parse_function_rejects_unknown_variable():
    with pytest.raises(ps.FunctionParseError, match="dataL"):
        ps.parse_function("dataL + 1")


def test_parse_function_rejects_a_string_of_variables():
    # A string is a sequence of one-letter variables: 'o', 'r', 'i', 'g'.
    with pytest.raises(ps.ConfigError) as exc:
        ps.parse_function("o + r", variables="orig")
    assert str(exc.value) == "variables must be a sequence of names, not the string 'orig'"


def test_parse_function_rejects_variables_that_are_not_iterable():
    # It used to end in TypeError: 'NoneType' object is not iterable.
    with pytest.raises(ps.ConfigError) as exc:
        ps.parse_function("x", variables=None)
    assert str(exc.value) == "variables must be a sequence of names, not None"


def test_parse_function_position_in_error():
    with pytest.raises(ps.FunctionParseError) as exc:
        ps.parse_function("data + + 1")
    assert exc.value.position == 7


APPLY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@pytest.mark.parametrize("ops, terms", [
    ("+-", ["orig", "data", "0.1", "sqr(orig)", "3"]),
    ("*/", ["orig", "data", "1.1", "0.9", "sqr(data)"]),
])
def test_long_left_associative_chains_keep_their_bits(ops, terms):
    # 1,001 terms: the deepest chain the README allows, folded left to right.
    orig, data = 1.25, -0.75
    values = {"orig": orig, "data": data, "sqr(orig)": orig * orig, "sqr(data)": data * data}
    terms = (terms * 201)[:1001]
    source = terms[0]
    expected = orig
    for i, term in enumerate(terms[1:]):
        op = ops[i % 2]
        source += f" {op} {term}"
        expected = APPLY[op](expected, values[term] if term in values else float(term))
    got = ps.parse_function(source)(orig, data)
    assert struct.pack("<d", got) == struct.pack("<d", expected)


def test_expressions_at_both_limits_compile_and_evaluate():
    # sqr under '/' needs two parentheses per level in the generated code.
    source = "data"
    for _ in range(64):
        source = f"orig / sqr({source})"
    assert ps.parse_function(source)(1.0, 1.0) == 1.0
    # 64 levels of 15 operations each, then 40 more: 1,000 deep.
    nested = "orig"
    for _ in range(64):
        nested = "(" + nested + " - 2 - orig * orig" + " - orig" * 13 + ")"
    nested += " - orig" * 40
    assert ps.parse_function(nested)(1.0, 0.0) == -1063.0
    with pytest.raises(ps.FunctionParseError, match="more than 1000 operations deep"):
        ps.parse_function(nested + " - orig")


def test_functions_of_one_shape_share_one_code_object():
    two = ps.parse_function("data + 2*orig")
    five = ps.parse_function("data + 5*orig")
    assert (two(3.0, 1.0), five(3.0, 1.0)) == (7.0, 16.0)
    assert two.evaluator() is not five.evaluator()
    assert two.evaluator().__code__ is five.evaluator().__code__


def code_generating_calls(action):
    """The calls of builtin ``compile``, ``eval`` and ``exec`` while ``action`` runs."""
    watched = (builtins.compile, builtins.eval, builtins.exec)
    seen = []

    def profile(frame, event, arg):
        if event == "c_call" and any(arg is builtin for builtin in watched):
            seen.append(arg.__name__)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return seen


README_FEEDBACK_FILE = """\
stage S1 { fn = "data + 2*sqr(orig)"; delay = 1; }
stage S2 { fn = "data + 4*orig";      delay = 1; }
stage S3 { fn = "data - 7";           delay = 1; }
pipeline = S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2;
join = "orig / (dataL - sqr(dataR))";
"""


def test_set_up_generates_no_code(tmp_path):
    path = tmp_path / "feedback.pipe"
    path.write_text(README_FEEDBACK_FILE, encoding="utf-8")

    def set_up():
        setup = ps.load_pipeline_file(str(path))
        checked = ps.validate_config(setup.routes["main"], setup.configs, join=setup.join)
        ps.elaborate(setup.routes["main"], setup.decls, checked)

    assert code_generating_calls(set_up) == []
    # The watch does see the compile of a shape no test has evaluated.
    fresh = ps.parse_function("sqr(data) / 3 - orig * sqr(orig) - data - 11")
    assert code_generating_calls(fresh.evaluator) == ["compile", "exec"]


def test_run_build_compiles_a_custom_join():
    # The join's code is made when the run builds, with no copy to merge yet.
    fork = ps.declare_stages(["S1", "S2"])
    route = ps.flatten(ps.parse("S1 + S2", fork))
    configs = [ps.StageConfig(s, lambda orig, data: data) for s in route.stages]
    join = ps.JoinSpec.custom("sqr(dataR) / 9 - dataL * sqr(orig) - 13")
    # Resolved before the watch: the first access imports the simulator, and
    # the import machinery's own compile and exec calls are not the run's.
    run = ps.run
    build = lambda: run(ps.elaborate(route, fork), configs, [], join=join)
    assert code_generating_calls(build) == ["compile", "exec"]


def test_callable_functions_supported(decls):
    route = ps.flatten(ps.parse("S1", decls))
    configs = [ps.StageConfig(decls["S1"], lambda orig, data: data * orig + orig)]
    result = ps.run(ps.elaborate(route, decls), configs, [3.0])
    assert result.trace.records[0].data == 3.0


# -- join specs ---------------------------------------------------------------


def test_join_variants():
    assert ps.JoinSpec.left().merge(1, 10, 20) == 10
    assert ps.JoinSpec.right().merge(1, 10, 20) == 20
    assert ps.JoinSpec.sum().merge(1, 10, 20) == 30
    custom = ps.JoinSpec.custom("dataL - dataR + orig")
    assert custom.merge(5, 10, 20) == -5


def test_join_merger_is_one_call_on_a_tuple():
    for join in (ps.JoinSpec.left(), ps.JoinSpec.right(), ps.JoinSpec.sum(),
                 ps.JoinSpec.custom("dataL - dataR + orig")):
        assert join.merger()((5, 10, 20)) == join.merge(5, 10, 20)
    # A custom join's merger is its compiled code, with no wrapper around it.
    custom = ps.JoinSpec.custom("dataL * orig - dataR")
    assert custom.merger() is custom.expr.evaluator()


def test_run_refuses_a_join_beside_a_checked_config():
    # The checked join used to win silently: data 2.0 where the sum join gives 3.0.
    fork = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 + S2 >> S3", fork))
    configs = [ps.StageConfig(s, ps.parse_function("data + orig")) for s in route.stages]
    netlist = ps.elaborate(route, fork)
    checked = ps.validate_config(route, configs, join=ps.JoinSpec.left())
    with pytest.raises(ps.ConfigError) as exc:
        ps.run(netlist, checked, [1.0], join=ps.JoinSpec.sum())
    assert str(exc.value) == "pass the join to validate_config, not to run with a CheckedConfig"
    summed = ps.run(netlist, configs, [1.0], join=ps.JoinSpec.sum())
    assert summed.trace.records[0].data == 3.0
    assert ps.run(netlist, checked, [1.0]).trace.records[0].data == 2.0


# -- stage configs ------------------------------------------------------------


@pytest.mark.parametrize(
    "changes, message",
    [
        # A str channel kind used to run silently as a blocking latch.
        ({"channels": "signal"}, "stage 'S1': channels 'signal' is not of type ChannelKind"),
        ({"exec": "reactive"}, "stage 'S1': exec 'reactive' is not of type ExecKind"),
        ({"timing": 2}, "stage 'S1': timing 2 is not of type TimingSpec"),
        ({"timing": None}, "stage 'S1': timing None is not of type TimingSpec"),
        ({"function": "data + 1"},
         "stage 'S1': function must take (orig, data), got 'data + 1'"),
        ({"function": ps.parse_function("dataL", ("orig", "dataL", "dataR"))},
         "stage 'S1': function must take (orig, data), got "
         "FunctionSpec(source='dataL', variables=('orig', 'dataL', 'dataR'))"),
        ({"stage": "S1"}, "a stage configuration needs a StageId, got 'S1'"),
    ],
)
def test_stage_config_rejects_wrongly_typed_fields(decls, changes, message):
    with pytest.raises(ps.ConfigError) as exc:
        ps.StageConfig(**{"stage": decls["S1"], "function": ps.parse_function("data"), **changes})
    assert str(exc.value) == message


# -- timing / issue validation -------------------------------------------------


def test_timing_rejects_negative_delay():
    with pytest.raises(ps.ConfigError):
        ps.TimingSpec.timed(-1)


def test_timing_constructor_rejects_negative_delay():
    # A negative delay used to run as a zero-delay stage with negative busy_ns.
    with pytest.raises(ps.ConfigError) as exc:
        ps.TimingSpec(delay=-3)
    assert str(exc.value) == "stage delay must be >= 0, got -3"
    assert ps.TimingSpec(0) == ps.TimingSpec.timed(0)
    assert ps.TimingSpec(None) == ps.UNTIMED


@pytest.mark.parametrize("delay", [1.5, 2.0, True, False, "1"])
def test_timing_rejects_a_delay_that_is_not_an_integer(delay):
    # A float delay used to run, reporting busy_ns=6.0 and ending at 6.0ns;
    # str(TimingSpec(True)) was "timed(True)".
    with pytest.raises(ps.ConfigError) as exc:
        ps.TimingSpec(delay)
    assert str(exc.value) == f"stage delay must be an integer, got {delay!r}"
    with pytest.raises(ps.ConfigError):
        ps.TimingSpec.timed(delay)


def test_issue_fixed_requires_positive_interval():
    with pytest.raises(ps.ConfigError):
        ps.IssueSpec.fixed(0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "gready"}, "unknown issue policy 'gready'; use greedy, eager or fixed:<interval>"),
        ({"kind": "fixed"}, "fixed issue interval must be >= 1, got None"),
        ({"kind": "fixed", "interval": 0}, "fixed issue interval must be >= 1, got 0"),
        ({"kind": "greedy", "interval": 5}, "the greedy issue policy takes no interval, got 5"),
        ({"kind": "eager", "interval": 0}, "the eager issue policy takes no interval, got 0"),
    ],
)
def test_issue_spec_rejects_unknown_kinds_and_bad_intervals(kwargs, message):
    with pytest.raises(ps.ConfigError) as exc:
        ps.IssueSpec(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("interval", [1.5, 2.0, True, False, "2"])
def test_fixed_issue_interval_must_be_an_int(interval):
    # A float would put fractional ns into every issue time; True printed as fixed:True.
    with pytest.raises(ps.ConfigError) as exc:
        ps.IssueSpec(kind="fixed", interval=interval)
    assert str(exc.value) == f"fixed issue interval must be an integer, got {interval!r}"
    with pytest.raises(ps.ConfigError):
        ps.IssueSpec.fixed(interval)


def test_issue_spec_constructors_share_the_interval_check():
    with pytest.raises(ps.ConfigError) as exc:
        ps.IssueSpec.fixed(-3)
    assert str(exc.value) == "fixed issue interval must be >= 1, got -3"
    assert ps.IssueSpec(kind="greedy") == ps.IssueSpec.greedy()
    assert ps.IssueSpec(kind="fixed", interval=2) == ps.IssueSpec.fixed(2)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "bogus"}, "unknown join 'bogus'; use left, right, sum or custom"),
        ({"kind": "custom"}, "a custom join needs an expression"),
        ({"kind": "left", "expr": ps.parse_function("dataL", ("orig", "dataL", "dataR"))},
         "a left join takes no expression, got "
         "FunctionSpec(source='dataL', variables=('orig', 'dataL', 'dataR'))"),
        # Over a stage's variables, data read dataL: merge(1.0, 1.1, 2.0) gave 11.0.
        ({"kind": "custom", "expr": ps.parse_function("data * 10")},
         "a custom join must take (orig, dataL, dataR), got "
         "FunctionSpec(source='data * 10', variables=('orig', 'data'))"),
        ({"kind": "custom", "expr": "dataL"},
         "a custom join must take (orig, dataL, dataR), got 'dataL'"),
    ],
)
def test_join_spec_rejects_unknown_kinds(kwargs, message):
    with pytest.raises(ps.ConfigError) as exc:
        ps.JoinSpec(**kwargs)
    assert str(exc.value) == message


# -- configuration validation ---------------------------------------------------


def test_accepts_complete_timed_blocking_config(decls):
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    checked = ps.validate_config(route, quad_configs(decls))
    assert checked.warnings == ()
    assert checked.config_of(decls["S1"]).timing.delay == 1


def test_missing_stage_config_rejected(decls):
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    with pytest.raises(ps.ConfigError, match="S3"):
        ps.validate_config(route, quad_configs(decls)[:2])


def test_duplicate_stage_config_rejected(decls):
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    configs = quad_configs(decls) + [quad_configs(decls)[0]]
    with pytest.raises(ps.ConfigError, match="duplicate"):
        ps.validate_config(route, configs)


def test_entry_that_is_not_a_stage_config_rejected():
    # Both used to end in AttributeError.
    decls = ps.declare_stages(["A"])
    route = ps.flatten(ps.parse("A", decls))
    for configs, kind in (([("A", "data")], "tuple"), ({decls["A"]: "x"}, "str")):
        with pytest.raises(ps.ConfigError) as exc:
            ps.validate_config(route, configs)
        assert str(exc.value) == f"stage configuration is a {kind}, not a StageConfig"


def test_single_stage_config_rejected(decls):
    # It used to end in TypeError: 'StageConfig' object is not iterable.
    route = ps.flatten(ps.parse("S1", decls))
    with pytest.raises(ps.ConfigError) as exc:
        ps.validate_config(route, quad_configs(decls)[0])
    assert str(exc.value) == "configs must be a sequence or mapping of StageConfigs, not one"


@pytest.mark.parametrize("configs", [None, 5])
def test_configs_that_are_not_iterable_rejected(decls, configs):
    # It used to end in TypeError: '<type>' object is not iterable.
    route = ps.flatten(ps.parse("S1", decls))
    with pytest.raises(ps.ConfigError) as exc:
        ps.validate_config(route, configs)
    assert str(exc.value) == (
        f"configs must be a sequence or mapping of StageConfigs, not {configs!r}"
    )


def test_run_checks_a_checked_config_against_the_route(decls):
    # A hand-built CheckedConfig used to end in KeyError without configs, and
    # in JoinError at the first merge without a join.
    route = ps.flatten(ps.parse("S1 + S2 >> S3", decls))
    netlist = ps.elaborate(route, decls)
    configs = {s: ps.StageConfig(s, ps.parse_function("data")) for s in route.stages}
    for bare in ({}, configs):
        with pytest.raises(ps.ConfigError) as expected:
            ps.validate_config(route, bare)
        with pytest.raises(ps.ConfigError) as exc:
            ps.run(netlist, ps.CheckedConfig(route, bare, None), [1.0])
        assert str(exc.value) == str(expected.value)


def test_elaborate_checks_a_checked_config_against_the_route():
    # A hand-built CheckedConfig used to end in KeyError without configs, and
    # in AttributeError with entries that are not StageConfigs.
    decls = ps.declare_stages(["A", "B"])
    a, b = decls
    route = ps.flatten(a >> b)
    for bare in ({}, {a: 5, b: "x"}):
        with pytest.raises(ps.ConfigError) as expected:
            ps.validate_config(route, bare)
        with pytest.raises(ps.ConfigError) as exc:
            ps.elaborate(route, decls, ps.CheckedConfig(route, bare, None))
        assert str(exc.value) == str(expected.value)


def test_a_config_checked_for_another_route_is_checked_for_the_given_one(decls):
    # elaborate and run take a CheckedConfig built for another route as a fresh
    # check of its configs and join against the route they are given.
    configs = quad_configs(decls)
    configs[1] = ps.StageConfig(decls["S2"], ps.parse_function("data + 4*orig"),
                                channels=ps.ChannelKind.SIGNAL)
    checked = ps.validate_config(ps.flatten(ps.parse("S1 >> S2 + S3", decls)), configs,
                                 join=ps.JoinSpec.sum())
    assert checked.warnings  # its route ends in a fork; the given one does not
    route = ps.flatten(ps.parse("S1 + S2 >> S3 >> S2", decls))
    fresh = ps.validate_config(route, configs, join=ps.JoinSpec.sum())
    assert fresh.warnings == ()
    netlist = ps.elaborate(route, decls, fresh)
    assert netlist != ps.elaborate(route, decls)  # S2's signal channels
    assert ps.elaborate(route, decls, checked) == netlist
    inputs = [1.0, 2.0, 3.0]
    result = ps.run(netlist, fresh, inputs)
    assert ps.run(netlist, checked, inputs) == result
    assert result != ps.run(netlist, configs, inputs, join=ps.JoinSpec.left())  # join kept
    # One that does not cover the given route fails as a fresh check does.
    chain = ps.validate_config(ps.flatten(ps.parse("S1 >> S2", decls)), configs[:2])
    for text, message in (
        ("S1 >> S2 >> S3", "missing configuration for stage(s): S3"),
        ("S1 + S2 >> S1",
         "fork at step 0 merges at the router feeding S1: a join specification is required"),
    ):
        route = ps.flatten(ps.parse(text, decls))
        with pytest.raises(ps.ConfigError, match=f"^{re.escape(message)}$"):
            ps.validate_config(route, chain.configs)
        with pytest.raises(ps.ConfigError, match=f"^{re.escape(message)}$"):
            ps.elaborate(route, decls, chain)
        with pytest.raises(ps.ConfigError, match=f"^{re.escape(message)}$"):
            ps.run(ps.elaborate(route, decls), chain, inputs)


def test_fork_without_join_names_merge_router(decls):
    route = ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls))
    configs = [ps.StageConfig(s, ps.parse_function("data")) for s in route.stages]
    with pytest.raises(ps.ConfigError, match="S4"):
        ps.validate_config(route, configs)


def test_terminal_fork_merges_at_exit_with_warning(decls):
    route = ps.flatten(ps.parse("S1 >> S2 + S3", decls))
    configs = [ps.StageConfig(s, ps.parse_function("data")) for s in route.stages]
    with pytest.raises(ps.ConfigError, match="exit"):
        ps.validate_config(route, configs)
    checked = ps.validate_config(route, configs, join=ps.JoinSpec.sum())
    assert any("exit" in w for w in checked.warnings)


# The reactive rules belong to one stage, so the config checks them when built.


def test_reactive_with_positive_delay_rejected(decls):
    with pytest.raises(ps.ConfigError) as exc:
        ps.StageConfig(
            decls["S1"],
            ps.parse_function("data"),
            timing=ps.TimingSpec.timed(1),
            channels=ps.ChannelKind.SIGNAL,
            exec=ps.ExecKind.REACTIVE,
        )
    assert str(exc.value) == "stage 'S1': reactive execution cannot delay (got timed(1))"


def test_reactive_requires_signal_channels(decls):
    with pytest.raises(ps.ConfigError) as exc:
        ps.StageConfig(
            decls["S1"],
            ps.parse_function("data"),
            timing=ps.UNTIMED,
            channels=ps.ChannelKind.BLOCKING,
            exec=ps.ExecKind.REACTIVE,
        )
    assert str(exc.value) == "stage 'S1': reactive execution requires signal channels"


# -- orthogonality of the configuration dimensions -----------------------------


def run_quad(decls, configs, inputs=(1.0, 2.0), issue=None):
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    net = ps.elaborate(route, decls)
    return ps.run(net, configs, list(inputs), issue=issue or ps.IssueSpec.greedy())


def test_swapping_function_keeps_timestamps(decls):
    base = run_quad(decls, quad_configs(decls))
    swapped_configs = quad_configs(decls)
    swapped_configs[1] = ps.StageConfig(
        decls["S2"], ps.parse_function("data + 5"), timing=ps.TimingSpec.timed(1)
    )
    swapped = run_quad(decls, swapped_configs)
    assert [r.data for r in base.trace.records] != [r.data for r in swapped.trace.records]
    assert [(r.injected_at, r.exited_at) for r in base.trace.records] == [
        (r.injected_at, r.exited_at) for r in swapped.trace.records
    ]
    assert base.trace.occupancy == swapped.trace.occupancy


def test_doubling_delay_doubles_busy_time_only(decls):
    one = run_quad(decls, quad_configs(decls), inputs=(3.0,))
    configs = quad_configs(decls)
    configs[1] = ps.StageConfig(
        decls["S2"], ps.parse_function("data + 4*orig"), timing=ps.TimingSpec.timed(2)
    )
    two = run_quad(decls, configs, inputs=(3.0,))
    assert two.stats.stage["S2"].busy_ns == 2 * one.stats.stage["S2"].busy_ns
    assert two.stats.stage["S1"].busy_ns == one.stats.stage["S1"].busy_ns
    assert [r.data for r in one.trace.records] == [r.data for r in two.trace.records]


def test_sum_join_commutes_with_arrival_order(decls):
    route = ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls))
    net = ps.elaborate(route, decls)

    def configs(d2, d3):
        return [
            ps.StageConfig(decls["S1"], ps.parse_function("data + orig")),
            ps.StageConfig(decls["S2"], ps.parse_function("data + 1"),
                           timing=ps.TimingSpec.timed(d2)),
            ps.StageConfig(decls["S3"], ps.parse_function("data + 10"),
                           timing=ps.TimingSpec.timed(d3)),
            ps.StageConfig(decls["S4"], ps.parse_function("data")),
        ]

    fast_left = ps.run(net, configs(1, 2), [5.0], join=ps.JoinSpec.sum())
    fast_right = ps.run(net, configs(2, 1), [5.0], join=ps.JoinSpec.sum())
    assert fast_left.trace.records[0].data == fast_right.trace.records[0].data == 21.0


def test_untimed_and_zero_delay_order_identically(decls):
    def run_with(timing):
        configs = [
            ps.StageConfig(decls["S1"], ps.parse_function("data + 1"), timing=timing),
            ps.StageConfig(decls["S2"], ps.parse_function("data * 2"), timing=timing),
        ]
        route = ps.flatten(ps.parse("S1 >> S2", decls))
        return ps.run(
            ps.elaborate(route, decls), configs, [1.0, 2.0, 3.0],
            issue=ps.IssueSpec.eager(),
        )

    untimed = run_with(ps.UNTIMED)
    zero = run_with(ps.TimingSpec.timed(0))
    assert untimed.trace.occupancy == zero.trace.occupancy
    assert [r.data for r in untimed.trace.records] == [r.data for r in zero.trace.records]
    # the distinction is representational: only the timed path counts waits
    assert untimed.stats.timed_waits == 0
    assert zero.stats.timed_waits == 6


def test_config_keyed_by_another_stage_rejected():
    decls = ps.declare_stages(["S1", "S2"])
    route = ps.flatten(ps.parse("S1", decls))
    config = ps.StageConfig(decls["S2"], ps.parse_function("data"))
    with pytest.raises(ps.ConfigError, match="^configuration keyed by 'S1' describes 'S2'$"):
        ps.validate_config(route, {decls["S1"]: config})
