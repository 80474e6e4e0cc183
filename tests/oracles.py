"""Independent brute-force oracles used to confirm expected test values.

Everything here works from first principles on routes and issue schedules:
occupancy grids, direct difference checks, exhaustive cycle enumeration.
None of it goes through the collision-vector machinery it is used to check,
except ``karp_mal_cycle``: the minimum-mean-cycle method pipesim used before,
kept as the reference for the exact MAL cycle the analysis must return.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pipesim as ps
from pipesim.analysis import _find_cycle, _state_graph


def marks_by_scan(route: ps.Route) -> dict[str, list[int]]:
    """Stage marks via a plain membership scan of each step set."""
    marks: dict[str, list[int]] = {}
    for i, step in enumerate(route.steps):
        for stage in step:
            marks.setdefault(stage.name, []).append(i)
    return {name: sorted(v) for name, v in marks.items()}


def schedule_conflicts(route: ps.Route, issue_times: list[int]) -> int:
    """Count double-bookings when transactions issue at the given times."""
    marks = marks_by_scan(route)
    used: set[tuple[str, int]] = set()
    conflicts = 0
    for t0 in issue_times:
        for stage, stage_marks in marks.items():
            for m in stage_marks:
                key = (stage, t0 + m)
                if key in used:
                    conflicts += 1
                used.add(key)
    return conflicts


def forbidden_by_schedule(route: ps.Route) -> set[int]:
    """Forbidden latencies found by simulating two issues at each distance."""
    length = len(route.steps)
    return {
        d for d in range(1, length) if schedule_conflicts(route, [0, d]) > 0
    }


def forbidden_by_differences(route: ps.Route) -> set[int]:
    """Forbidden latencies as exhaustive pairwise differences per stage row."""
    out: set[int] = set()
    for stage_marks in marks_by_scan(route).values():
        for a, b in itertools.combinations(stage_marks, 2):
            out.add(abs(b - a))
    return out


def cycle_is_permissible(route: ps.Route, latencies: tuple[int, ...]) -> bool:
    """Repeat the cycle long enough that every difference below L appears."""
    length = len(route.steps)
    k = len(latencies)
    times = [0]
    for i in range(3 * k + length + 2):
        times.append(times[-1] + latencies[i % k])
    return schedule_conflicts(route, times) == 0


def brute_force_mal(route: ps.Route) -> float:
    """Minimum average over all cycles with period <= L and latencies <= L."""
    length = len(route.steps)
    best = None
    for k in range(1, length + 1):
        for latencies in itertools.product(range(1, length + 1), repeat=k):
            if cycle_is_permissible(route, latencies):
                avg = sum(latencies) / len(latencies)
                if best is None or avg < best:
                    best = avg
    return best


def karp_mal_cycle(vector: ps.CollisionVector) -> ps.IssueCycle:
    """MAL cycle by Karp's minimum mean cycle over the collision-state graph.

    Fills Karp's (n+1) x n table of exactly-k-edge walk weights from state 0,
    then takes Bellman-Ford potentials for weights (w - MAL) in Fractions and
    returns the first cycle a DFS meets in the tight subgraph.
    """
    states, edges = _state_graph(vector)
    n = len(states)

    d_table = [[None] * n for _ in range(n + 1)]
    d_table[0][0] = 0
    for k in range(1, n + 1):
        prev = d_table[k - 1]
        cur = d_table[k]
        for u in range(n):
            base = prev[u]
            if base is None:
                continue
            for v, w in edges[u]:
                cand = base + w
                if cur[v] is None or cand < cur[v]:
                    cur[v] = cand
    mal = None
    last = d_table[n]
    for v in range(n):
        if last[v] is None:
            continue
        best_for_v = None
        for k in range(n):
            dk = d_table[k][v]
            if dk is None:
                continue
            ratio = Fraction(last[v] - dk, n - k)
            if best_for_v is None or ratio > best_for_v:
                best_for_v = ratio
        if best_for_v is not None and (mal is None or best_for_v < mal):
            mal = best_for_v

    pot = [None] * n
    pot[0] = Fraction(0)
    for _ in range(n - 1):
        changed = False
        for u in range(n):
            if pot[u] is None:
                continue
            for v, w in edges[u]:
                cand = pot[u] + w - mal
                if pot[v] is None or cand < pot[v]:
                    pot[v] = cand
                    changed = True
        if not changed:
            break

    tight = [[] for _ in range(n)]
    for u in range(n):
        if pot[u] is None:
            continue
        for v, w in edges[u]:
            if pot[v] is not None and pot[u] + w - mal == pot[v]:
                tight[u].append((v, w))
    cycle = ps.IssueCycle(tuple(w for _, w in _find_cycle(tight, n)))
    assert cycle.average == mal
    return cycle


def replay_routing_tables(netlist: ps.Netlist) -> ps.Route:
    """Rebuild the route by walking every routing table from step 0."""
    steps = [set(netlist.entry_router.table.lookup(-1))]
    while True:
        i = len(steps) - 1
        dests = None
        for stage in steps[-1]:
            table = netlist.router_of(stage).table
            entry = table.lookup(i)
            assert entry is not None, f"router of {stage.name} lacks step {i}"
            if dests is None:
                dests = entry
            else:
                assert entry == dests, "routers disagree on the next step"
        if dests is ps.EXIT:
            break
        steps.append(set(dests))
    return ps.Route(tuple(frozenset(s) for s in steps))


def random_expr(rng: random.Random, max_stages: int = 6, max_terms: int = 10):
    """A random expression over a fresh declaration set."""
    n = rng.randint(1, max_stages)
    decls = ps.declare_stages([f"S{i}" for i in range(n)])
    stages = list(decls)
    expr = None
    for _ in range(rng.randint(1, max_terms)):
        kind = rng.random()
        if kind < 0.6 or n < 2:
            term = ps.StageRef(rng.choice(stages))
        elif kind < 0.85:
            term = ps.repeat(rng.choice(stages), rng.randint(1, 3))
        else:
            term = ps.fork(rng.sample(stages, rng.randint(2, min(3, n))))
        expr = term if expr is None else ps.seq(expr, term)
    return decls, expr


def unit_configs(route: ps.Route, fn: str = "data + 1") -> list[ps.StageConfig]:
    return [ps.StageConfig(s, ps.parse_function(fn)) for s in route.stages]
