"""Independent brute-force oracles used to confirm expected test values.

Everything here works from first principles on routes and issue schedules:
occupancy grids, direct difference checks, exhaustive cycle enumeration.
None of it goes through the collision-vector machinery it is used to check.
``karp_mal_cycle``, the minimum-mean-cycle method pipesim used before, is
kept as the reference for the exact MAL cycle the analysis must return.  It
builds its own state graph with every edge, and borrows only the depth-first
search ``_find_cycle`` that fixes which of several MAL cycles is returned.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import NamedTuple

import pipesim as ps
from pipesim.analysis import _find_cycle


def marks_by_scan(route: ps.Route) -> dict[str, list[int]]:
    """Stage marks via a plain membership scan of each step set."""
    marks: dict[str, list[int]] = {}
    for i, step in enumerate(route.steps):
        for stage in step:
            marks.setdefault(stage.name, []).append(i)
    return {name: sorted(v) for name, v in marks.items()}


def grid_by_cells(table: ps.ReservationTable) -> str:
    """The text grid of a table, one right-aligned cell at a time."""
    name_width = max(len(s.name) for s in table.stages)
    widths = [len(str(i)) for i in range(table.length)]
    lines = [" " * name_width + "  " + " ".join(str(i).rjust(w) for i, w in enumerate(widths))]
    for stage in table.stages:
        row = set(table.marks[stage])
        cells = " ".join(("X" if i in row else ".").rjust(w) for i, w in enumerate(widths))
        lines.append(stage.name.ljust(name_width) + "  " + cells)
    return "\n".join(lines)


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


def full_state_graph(vector: ps.CollisionVector) -> list[list[tuple[int, int]]]:
    """Every edge of the collision-state graph, from the forbidden set.

    A state is the set of latencies forbidden after the issues so far;
    state 0 is the forbidden set and states are numbered in breadth-first
    order.  ``edges[i]`` lists (destination index, latency) for every
    permitted latency 1..L-1 of state i and the restart latency L, in
    ascending latency.
    """
    length = vector.length
    forbidden = vector.forbidden
    index = {forbidden: 0}
    queue = [forbidden]
    edges = []
    for state in queue:
        out = []
        for d in range(1, length + 1):
            if d in state:
                continue
            dest = frozenset(f - d for f in state if f > d) | forbidden
            if dest not in index:
                index[dest] = len(queue)
                queue.append(dest)
            out.append((index[dest], d))
        edges.append(out)
    return edges


def karp_mal_cycle(vector: ps.CollisionVector) -> ps.IssueCycle:
    """MAL cycle by Karp's minimum mean cycle over the collision-state graph.

    Fills Karp's (n+1) x n table of exactly-k-edge walk weights from state 0,
    then takes Bellman-Ford potentials for weights (w - MAL) in Fractions and
    returns the first cycle a DFS meets in the tight subgraph.
    """
    edges = full_state_graph(vector)
    n = len(edges)

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
    cycle = ps.IssueCycle(tuple(_find_cycle(n, tight.__getitem__)))
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


class TandemRun(NamedTuple):
    """What :func:`tandem_run` predicts: each input's inject and exit ns,
    each (stage, txn) occupancy's start ns, and each stage's stalls."""

    inject_ns: list[int]
    exit_ns: list[int]
    starts: dict[tuple[str, int], int]
    stalls: dict[str, int]


def tandem_run(route: ps.Route, delays: dict[str, int], issue_ns: list[int | None]) -> TandemRun:
    """Ns times of a run over a route in which no stage appears twice.

    Every latch then has one writer per transaction and transactions keep
    their order, so the times follow the max-plus departure recurrence of a
    tandem line with unbounded buffers, one input at a time:

    * a write into stage s attempted at ns a lands at w = max(a, end_s), its
      occupancy starts at w, and end_s becomes w + delay_s;
    * input n is attempted at max(issue_ns[n], inject(n-1)), where None is no
      issue time, and its copies are written in declaration order, each one
      attempted when the last landed; inject(n) is the last landing;
    * a step is done when its last copy ends (the join).  The router of that
      copy's stage writes the next step's copies, in declaration order, from
      no earlier than its own previous landing.  When the last step is done,
      the transaction exits.

    A write attempted before ``end_s`` is a stall: the rule of a route whose
    delays are all at least 1, where a latch frees before any write of the
    same ns.  Of copies that end together, the last to reach its router is
    the one that started last, then the one declared last.
    """
    end = {s.name: 0 for s in route.stages}
    stalls = dict.fromkeys(end, 0)
    port_free: dict[str, int] = {}
    inject, exits, starts = [], [], {}

    def write(txn, stages, attempt):
        """Land copies in declaration order; returns the last landing."""
        for stage in sorted(stages, key=lambda s: s.ordinal):
            name = stage.name
            stalls[name] += attempt < end[name]
            attempt = max(attempt, end[name])
            starts[name, txn] = attempt
            end[name] = attempt + delays[name]
        return attempt

    for txn, issue in enumerate(issue_ns):
        attempt = inject[-1] if inject else 0
        if issue is not None:
            attempt = max(attempt, issue)
        inject.append(write(txn, route.steps[0], attempt))
        for k, step in enumerate(route.steps):
            done, _, _, router = max((end[s.name], starts[s.name, txn], s.ordinal, s.name)
                                     for s in step)
            if k + 1 == len(route.steps):
                exits.append(done)
                break
            port_free[router] = write(txn, route.steps[k + 1], max(done, port_free.get(router, 0)))
    return TandemRun(inject, exits, starts, stalls)


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


_FUNCTION_TOKEN = re.compile(r"\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z_]\w*|[-+*/()])")


def reference_function(source: str, variables, values):
    """Evaluate a stage function by parsing it to a tree and walking the tree.

    Written from the README grammar: ``+ -`` below ``* /``, both left
    associative, then unary minus, ``sqr(...)``, real constants, variables
    and parentheses.  Each node evaluates its left operand, then its right,
    then applies its operation; ``/`` by zero raises ``FunctionEvalError``.
    """
    tokens = []
    at = 0
    while source[at:].strip():
        match = _FUNCTION_TOKEN.match(source, at)
        assert match, f"no token at {at} in {source!r}"
        tokens.append(match.group(1))
        at = match.end()
    tokens.append(None)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        node = term()
        while tokens[pos] in ("+", "-"):
            node = (take(), node, term())
        return node

    def term():
        node = factor()
        while tokens[pos] in ("*", "/"):
            node = (take(), node, factor())
        return node

    def factor():
        token = take()
        if token == "-":
            return ("neg", factor())
        if token == "(":
            node = expr()
            assert take() == ")"
            return node
        if token == "sqr":
            assert take() == "("
            node = expr()
            assert take() == ")"
            return ("sqr", node)
        if token in variables:
            return ("var", variables.index(token))
        return ("num", float(token))

    tree = expr()
    assert tokens[pos] is None, f"trailing tokens in {source!r}"

    def walk(node):
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "var":
            return values[node[1]]
        if kind == "neg":
            return -walk(node[1])
        if kind == "sqr":
            inner = walk(node[1])
            return inner * inner
        left = walk(node[1])
        right = walk(node[2])
        if kind == "+":
            return left + right
        if kind == "-":
            return left - right
        if kind == "*":
            return left * right
        if right == 0:
            raise ps.FunctionEvalError("division by zero")
        return left / right

    return walk(tree)


def unit_configs(route: ps.Route, fn: str = "data + 1") -> list[ps.StageConfig]:
    return [ps.StageConfig(s, ps.parse_function(fn)) for s in route.stages]
