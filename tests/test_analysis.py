import hashlib
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipesim as ps
from pipesim.analysis import AnalysisError, IssueCycle, issue_times, issue_warnings
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
    # Length 0 used to give a greedy cycle of latency 0.
    with pytest.raises(ps.AnalysisError):
        ps.CollisionVector(0, ())


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


def greedy_by_states(forbidden: frozenset[int], length: int) -> tuple[int, ...]:
    """The cycle that always issuing at the smallest permitted latency enters.

    A state is the set of latencies forbidden after the issues so far; the
    restart latency ``length`` is always permitted.
    """
    state, seen, latencies = forbidden, {}, []
    while state not in seen:
        seen[state] = len(latencies)
        d = min(d for d in range(1, length + 1) if d not in state)
        latencies.append(d)
        state = frozenset(f - d for f in state if f > d) | forbidden
    return tuple(latencies[seen[state]:])


def test_every_small_route_over_three_stages_matches_the_oracles():
    """All 19,607 routes of 1-5 steps whose steps are any of the 7 non-empty
    sets of 3 stages: 7 + 49 + 343 + 2,401 + 16,807.

    Every route is analyzed.  The oracles are kept per what they depend on:
    the greedy and Karp cycles on the length and forbidden set, a cycle's
    permissibility on the length and the stage rows' marks.
    """
    sets = [frozenset(c) for k in (1, 2, 3) for c in combinations(STAGES[:3], k)]
    greedy_of, mal_of, permissible = cache(greedy_by_states), cache(karp_mal_cycle), {}

    def is_permissible(route, latencies):
        key = (len(route), tuple(sorted(map(tuple, marks_by_scan(route).values()))), latencies)
        if key not in permissible:
            permissible[key] = cycle_is_permissible(route, latencies)
        return permissible[key]

    cases = 0
    for length in range(1, 6):
        for steps in product(sets, repeat=length):
            route = ps.Route(steps)
            report = ps.analyze(route)
            forbidden = frozenset(forbidden_by_differences(route))
            assert set(report.forbidden) == forbidden, steps
            assert report.vector == ps.CollisionVector(
                length, tuple(d in forbidden for d in range(1, length))), steps
            assert report.greedy.latencies == greedy_of(forbidden, length), steps
            assert report.mal_cycle == mal_of(report.vector), steps
            for cycle in (report.greedy, report.mal_cycle):
                assert is_permissible(route, cycle.latencies), steps
            cases += 1
    assert cases == 19_607


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


# SHA-256 over (length, sorted forbidden set, greedy latencies, MAL latencies)
# of every sparse route below and of 1,500 seeded random collision vectors.
ANALYSIS_RESULTS_SHA256 = "d6a4dcf1119b9662f9a76ea015f7d32f92f41e04fd1a1d1c8edf07d31fbd6ffe"


def test_analysis_results_pinned():
    lines = []
    for length in range(4, 27):
        for changes in range(5):
            report = ps.analyze(sparse_route(length, changes))
            lines.append(repr((
                report.table.length, report.forbidden,
                report.greedy.latencies, report.mal_cycle.latencies,
            )))
    rng = random.Random(15)
    for _ in range(1500):
        length = rng.randint(1, 13)
        vector = ps.CollisionVector(length, tuple(rng.random() < 0.5 for _ in range(length - 1)))
        lines.append(repr((
            length, tuple(sorted(vector.forbidden)),
            ps.greedy_cycle(vector).latencies, ps.minimal_average_latency(vector).latencies,
        )))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ANALYSIS_RESULTS_SHA256


# tracemalloc peak of one analyze(sparse_route(22, 3)) on CPython 3.11: 340 KiB
# with one dict of cheapest edges per state; 1,472 KiB when the state graph
# held every edge as a tuple and the MAL search built two more copies of it.
ANALYZE_PEAK_CEILING_KIB = 600


def test_analysis_peak_memory_of_a_sparse_route():
    route = sparse_route(22, 3)
    tracemalloc.start()
    try:
        ps.analyze(route)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1024 <= ANALYZE_PEAK_CEILING_KIB, peak / 1024


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


# -- issue schedules ---------------------------------------------------------


def vector_of(route):
    table = ps.reservation_table(route)
    return ps.collision_vector(ps.forbidden_latencies(table), table.length)


@settings(max_examples=100, deadline=None)
@given(routes())
def test_greedy_issue_times_never_differ_by_a_forbidden_latency(route):
    times = list(islice(issue_times(ps.IssueSpec.greedy(), vector_of(route)), 2 * len(route)))
    assert times[0] == 0
    differences = {b - a for a, b in combinations(times, 2)}
    assert min(differences, default=1) > 0
    assert not differences & forbidden_by_differences(route)


@settings(max_examples=100, deadline=None)
@given(routes())
def test_greedy_issue_gaps_repeat_the_greedy_cycle(route):
    # The greedy walk repeats once a collision state recurs, and there are at
    # most 2**(L-1) states, so the gaps are periodic after that many issues.
    vector = vector_of(route)
    cycle = list(ps.greedy_cycle(vector).latencies)
    n = len(cycle)
    states = 2 ** (len(route) - 1)
    times = list(islice(issue_times(ps.IssueSpec.greedy(), vector), states + 2 * n + 1))
    gaps = [b - a for a, b in zip(times, times[1:])]
    # The prefix ends after the last gap that breaks the period n.
    prefix = max((i + 1 for i in range(len(gaps) - n) if gaps[i] != gaps[i + n]), default=0)
    assert prefix <= states
    assert any(gaps[p:p + n] == cycle for p in range(prefix, prefix + n))


@settings(max_examples=100, deadline=None)
@given(routes())
def test_fixed_issue_warns_exactly_when_a_multiple_is_forbidden(route):
    vector = vector_of(route)
    length = len(route)
    forbidden = forbidden_by_differences(route)
    for k in range(1, length + 1):
        collisions = [m for m in range(k, length, k) if m in forbidden]
        expected = (
            (f"fixed issue interval {k} collides with forbidden latency "
             f"{collisions[0]}; expect structural stalls",)
            if collisions else ()
        )
        assert issue_warnings(ps.IssueSpec.fixed(k), vector) == expected
    assert issue_warnings(ps.IssueSpec.greedy(), vector) == ()
    assert issue_warnings(ps.IssueSpec.eager(), vector) == ()


def test_issue_times_of_each_kind(looped_route):
    vector = vector_of(looped_route)
    assert list(islice(issue_times(ps.IssueSpec.fixed(3), vector), 4)) == [0, 3, 6, 9]
    assert list(islice(issue_times(ps.IssueSpec.greedy(), vector), 4)) == [0, 4, 8, 12]
    assert list(issue_times(ps.IssueSpec.eager(), vector)) == []


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


def test_empty_issue_cycle_rejected():
    with pytest.raises(AnalysisError, match="^an issue cycle must contain at least one latency$"):
        IssueCycle(())
