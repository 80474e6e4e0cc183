import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipesim as ps
from oracles import (
    brute_force_mal,
    cycle_is_permissible,
    forbidden_by_differences,
    forbidden_by_schedule,
    karp_mal_cycle,
    marks_by_scan,
    random_expr,
    schedule_conflicts,
)

STAGES = list(ps.declare_stages([f"S{i}" for i in range(14)]))


@st.composite
def routes(draw, max_length=14):
    """Routes of up to ``max_length`` steps: distinct stages, then drawn
    steps set to the stage of an earlier step, then up to three stages
    added to drawn steps to make forks."""
    length = draw(st.integers(1, max_length))
    at = st.integers(0, length - 1)
    steps = [{stage} for stage in STAGES[:length]]
    for a, b in draw(st.lists(st.tuples(at, at), max_size=length)):
        steps[max(a, b)] = set(steps[min(a, b)])
    for i, stage in draw(st.lists(st.tuples(at, st.sampled_from(STAGES[:length])), max_size=3)):
        steps[i].add(stage)
    return ps.Route(tuple(frozenset(step) for step in steps))


def sparse_route(length: int, changes: int) -> ps.Route:
    """``length`` distinct single-stage steps; then ``changes`` times a seeded
    pick of two steps sets the later one to the earlier one's stage."""
    steps = [f"S{i}" for i in range(length)]
    rng = random.Random(length)
    for _ in range(changes):
        a, b = rng.sample(range(length), 2)
        steps[max(a, b)] = steps[min(a, b)]
    decls = ps.declare_stages(sorted(set(steps)))
    return ps.flatten(ps.parse(" >> ".join(steps), decls))


@pytest.fixture
def looped_route():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    return ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))


@pytest.fixture
def linear_route():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    return ps.flatten(ps.parse("S1 >> S2 >> S3", decls))


@pytest.fixture
def feedback_route():
    decls = ps.declare_stages(["S1", "S2"])
    return ps.flatten(ps.parse("S1 >> S2 >> S1", decls))


# -- reservation tables -----------------------------------------------------


def test_reservation_table_of_complex_route(looped_route):
    table = ps.reservation_table(looped_route)
    by_name = {s.name: list(table.marks[s]) for s in table.stages}
    # confirmed against the independent membership scan before freezing
    assert by_name == marks_by_scan(looped_route) == {
        "S1": [0, 3, 6],
        "S2": [1, 7],
        "S3": [2, 4, 5],
    }
    assert table.length == 8


def test_reservation_table_linear(linear_route):
    table = ps.reservation_table(linear_route)
    assert all(len(m) == 1 for m in table.marks.values())
    assert table.length == 3


def test_reservation_table_fork_marks_both_branches():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    route = ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls))
    table = ps.reservation_table(route)
    assert table.marks[decls["S2"]] == (1,)
    assert table.marks[decls["S3"]] == (1,)
    assert {s.name: list(m) for s, m in table.marks.items()} == marks_by_scan(route)


def test_reservation_table_checks_declarations(linear_route):
    other = ps.declare_stages(["A", "B"])
    with pytest.raises(ps.AnalysisError):
        ps.reservation_table(linear_route, other)


def test_ascii_grid_shape(looped_route):
    grid = ps.reservation_table(looped_route).ascii_grid()
    lines = grid.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("S1") and lines[1].count("X") == 3


# -- forbidden latencies ----------------------------------------------------


def test_forbidden_latencies_complex(looped_route):
    table = ps.reservation_table(looped_route)
    forbidden = ps.forbidden_latencies(table)
    assert forbidden == forbidden_by_differences(looped_route)
    assert forbidden == forbidden_by_schedule(looped_route)
    assert forbidden == {1, 2, 3, 6}


def test_forbidden_latencies_linear_empty(linear_route):
    assert ps.forbidden_latencies(ps.reservation_table(linear_route)) == frozenset()


def test_forbidden_latencies_feedback(feedback_route):
    assert ps.forbidden_latencies(ps.reservation_table(feedback_route)) == {2}


# -- collision vectors ------------------------------------------------------


def test_collision_vector_complex():
    vector = ps.collision_vector(frozenset({1, 2, 3, 6}), 8)
    assert vector.bits == (True, True, True, False, False, True, False)
    assert vector.bitstring() == "1110010"


def test_collision_vector_empty():
    vector = ps.collision_vector(frozenset(), 3)
    assert vector.bits == (False, False)


def test_collision_vector_single():
    assert ps.collision_vector(frozenset({2}), 3).bits == (False, True)


def test_collision_vector_rejects_out_of_range():
    with pytest.raises(ps.AnalysisError):
        ps.collision_vector(frozenset({8}), 8)


def test_latency_zero_always_forbidden():
    vector = ps.collision_vector(frozenset(), 3)
    assert vector.is_forbidden(0)
    assert not vector.is_forbidden(1)


# -- MAL and greedy cycles --------------------------------------------------


def test_mal_of_complex_route(looped_route):
    report = ps.analyze(looped_route)
    # oracle: all latencies <= 3 forbidden, so any cycle averages >= 4;
    # the constant cycle (4) is collision-free by schedule simulation
    assert {1, 2, 3} <= set(report.forbidden)
    assert cycle_is_permissible(looped_route, (4,))
    assert report.table.max_row_marks() == 3
    assert report.mal == 4
    assert report.mal_cycle.latencies == (4,)
    assert report.greedy.latencies == (4,)


def test_mal_linear_is_one(linear_route):
    report = ps.analyze(linear_route)
    assert report.mal == 1
    assert report.mal_cycle.latencies == (1,)


def test_mal_feedback_alternating_cycle(feedback_route):
    report = ps.analyze(feedback_route)
    assert report.mal == 2
    assert report.mal_cycle.latencies == (1, 3)
    # issue times 0,1,4,5,8,... have no pairwise difference of 2
    assert cycle_is_permissible(feedback_route, (1, 3))


def test_issue_cycle_average_is_rational():
    cycle = ps.IssueCycle((1, 3))
    assert cycle.average == Fraction(2)
    assert ps.IssueCycle((1, 2)).average == Fraction(3, 2)


def test_mal_cycle_permissible_by_simulation():
    rng = random.Random(11)
    for _ in range(30):
        _, expr = random_expr(rng, max_stages=5, max_terms=6)
        route = ps.flatten(expr)
        report = ps.analyze(route)
        assert cycle_is_permissible(route, report.mal_cycle.latencies)
        assert cycle_is_permissible(route, report.greedy.latencies)


def test_mal_matches_brute_force_on_small_routes():
    rng = random.Random(23)
    checked = 0
    while checked < 25:
        _, expr = random_expr(rng, max_stages=4, max_terms=5)
        route = ps.flatten(expr)
        if len(route) > 5:
            continue
        checked += 1
        assert float(ps.analyze(route).mal) == pytest.approx(brute_force_mal(route))


@settings(max_examples=100, deadline=None)
@given(routes())
def test_mal_cycle_equals_karp_oracle(route):
    report = ps.analyze(route)
    assert report.mal_cycle == karp_mal_cycle(report.vector)
    assert ps.minimal_average_latency(report.vector) == report.mal_cycle
    assert cycle_is_permissible(route, report.mal_cycle.latencies)


@settings(max_examples=60, deadline=None)
@given(routes(max_length=5))
def test_mal_equals_brute_force(route):
    assert float(ps.analyze(route).mal) == pytest.approx(brute_force_mal(route))


def test_mal_of_sparse_route_at_row_bound():
    report = ps.analyze(sparse_route(22, 3))
    assert report.table.max_row_marks() == 2
    assert report.mal == 2
    assert report.mal_cycle.latencies == (2,)


def test_mal_of_sparse_route_above_row_bound():
    route = sparse_route(26, 3)
    report = ps.analyze(route)
    assert report.table.max_row_marks() == 3
    assert report.mal == Fraction(32, 9)
    assert report.mal_cycle.latencies == (5, 4, 5, 4, 1, 4, 4, 1, 4)
    assert ps.minimal_average_latency(report.vector) == report.mal_cycle
    assert cycle_is_permissible(route, report.mal_cycle.latencies)


def test_mal_never_below_row_bound():
    rng = random.Random(31)
    for _ in range(40):
        _, expr = random_expr(rng)
        report = ps.analyze(ps.flatten(expr))
        assert report.mal >= report.table.max_row_marks()


def test_forbidden_set_matches_conflict_simulation():
    rng = random.Random(47)
    for _ in range(40):
        _, expr = random_expr(rng, max_stages=10, max_terms=12)
        route = ps.flatten(expr)
        if len(route) > 12:
            continue
        forbidden = ps.forbidden_latencies(ps.reservation_table(route))
        for d in range(1, len(route)):
            conflicts = schedule_conflicts(route, [0, d])
            assert (d in forbidden) == (conflicts > 0)


def test_appending_a_step_never_removes_forbidden_latencies():
    rng = random.Random(59)
    for _ in range(40):
        decls, expr = random_expr(rng, max_stages=5, max_terms=6)
        route = ps.flatten(expr)
        before = ps.forbidden_latencies(ps.reservation_table(route))
        extended = ps.Route(route.steps + (frozenset({rng.choice(list(decls))}),))
        after = ps.forbidden_latencies(ps.reservation_table(extended))
        assert before <= after


# -- composite report -------------------------------------------------------


def test_analyze_composes_everything(looped_route):
    report = ps.analyze(looped_route)
    assert report.forbidden == (1, 2, 3, 6)
    assert report.vector.bitstring() == "1110010"
    mapping = report.to_mapping()
    assert mapping["mal"] == 4.0
    assert mapping["marks"]["S3"] == [2, 4, 5]
    assert mapping["mal_lower_bound"] == 3


def test_analyze_each_route_independently():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    routes = {
        "a": ps.flatten(ps.parse("S1 >> S2 >> S3", decls)),
        "b": ps.flatten(ps.parse("S1 >> S2 >> S1", decls)),
    }
    reports = {name: ps.analyze(route, decls) for name, route in routes.items()}
    assert reports["a"].mal == 1
    assert reports["b"].mal == 2
    # shared stages do not leak between per-route analyses
    assert reports["a"].forbidden == ()
    assert reports["b"].forbidden == (2,)
