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


def test_parse_function_position_in_error():
    with pytest.raises(ps.FunctionParseError) as exc:
        ps.parse_function("data + + 1")
    assert exc.value.position == 7


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
        ({"kind": "gready"}, "unknown issue policy 'gready'; use greedy, eager or fixed:<k>"),
        ({"kind": "fixed"}, "fixed issue interval must be >= 1, got None"),
        ({"kind": "fixed", "interval": 0}, "fixed issue interval must be >= 1, got 0"),
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


def test_reactive_with_positive_delay_rejected(decls):
    route = ps.flatten(ps.parse("S1", decls))
    config = ps.StageConfig(
        decls["S1"],
        ps.parse_function("data"),
        timing=ps.TimingSpec.timed(1),
        channels=ps.ChannelKind.SIGNAL,
        exec=ps.ExecKind.REACTIVE,
    )
    with pytest.raises(ps.ConfigError, match="reactive"):
        ps.validate_config(route, [config])


def test_reactive_requires_signal_channels(decls):
    route = ps.flatten(ps.parse("S1", decls))
    config = ps.StageConfig(
        decls["S1"],
        ps.parse_function("data"),
        timing=ps.UNTIMED,
        channels=ps.ChannelKind.BLOCKING,
        exec=ps.ExecKind.REACTIVE,
    )
    with pytest.raises(ps.ConfigError, match="signal"):
        ps.validate_config(route, [config])


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
