"""Scheduling analysis of routes.

A route is a compact reservation table: stage S is busy at step i exactly
when S is a member of step i.  From the table this module derives

* the forbidden latency set: issue-time differences that would make two
  transactions demand the same stage in the same cycle,
* the collision vector over latencies 1..L-1,
* the greedy issue cycle and the issue times of each issue policy, and
* the minimal average latency (MAL), the best sustainable issue rate.

MAL is computed exactly, as the minimum mean cycle of the collision-state
graph.  States are collision vectors reachable from the initial vector under
the shifted-OR transition; any latency of at least L returns to the initial
state, so latencies beyond L never need explicit states.  The graph keeps
one edge per state and successor, the cheapest, in an int-to-int dict: a
dearer edge to the same state is on no minimum mean cycle and never tight.

The MAL is found in two steps, in integer arithmetic.  First the lower bound
(the most marks in one reservation-table row, after Shar and Kogge) is
tried: if the graph has a cycle whose edges are tight under shortest-path
potentials for weights (latency - bound), the bound is the MAL.  Otherwise
Howard policy iteration, which Dasdan and Gupta (IEEE TCAD 1998) found the
fastest minimum-mean-cycle method in practice, finds the MAL p/q, and the
cycle is read off the tight subgraph for weights (latency*q - p).  Either way
the cycle is the first one a depth-first search meets in that subgraph.

Means are int pairs (p, q).  Only the public ``average`` and ``mal`` build a
``Fraction`` and import ``fractions``, which costs milliseconds of start-up;
reports print the same float from ``IssueCycle.float_average``.
"""

from __future__ import annotations

from itertools import accumulate, count, islice
from math import gcd
from operator import itemgetter
from typing import Iterator, Mapping

from ._value import Value
from .dsl import ExprLike, Route, StageId, StageSet, flatten
from .errors import PipelineError
from .policy import IssueSpec


class AnalysisError(PipelineError):
    """An analysis input violates its preconditions."""


# ---------------------------------------------------------------------------
# Reservation table


class ReservationTable(Value):
    """Stage-by-step usage marks for one route.

    ``marks[s]`` is the sorted tuple of step indices at which stage ``s`` is
    busy; every step index in 0..length-1 is covered by at least one stage.
    """

    stages: tuple[StageId, ...]
    length: int
    marks: Mapping[StageId, tuple[int, ...]]

    def max_row_marks(self) -> int:
        """Maximum number of marks in any row; a lower bound on MAL."""
        return max(len(m) for m in self.marks.values())

    def ascii_grid(self) -> str:
        """Render the table as text: rows are stages, columns steps, X marks.

        Each column is as wide as its step number, right-aligned; a row is
        the blank row with an ``X`` put in where each of its marks ends.
        """
        name_width = max(len(s.name) for s in self.stages)
        numbers = [str(i) for i in range(self.length)]
        blank = " ".join(" " * (len(n) - 1) + "." for n in numbers)
        # The offset in ``blank`` of each column's last character.
        last = [end - 2 for end in accumulate(len(n) + 1 for n in numbers)]
        lines = [" " * name_width + "  " + " ".join(numbers)]
        for stage in self.stages:
            parts, start = [stage.name.ljust(name_width), "  "], 0
            for step in self.marks[stage]:
                parts += (blank[start:last[step]], "X")
                start = last[step] + 1
            parts.append(blank[start:])
            lines.append("".join(parts))
        return "\n".join(lines)


def reservation_table(route: Route, decls: StageSet | None = None) -> ReservationTable:
    """Build the reservation table of a route.

    ``decls``, when given, is used to check that every stage in the route was
    actually declared.
    """
    if decls is not None:
        for stage in route.stages:
            if stage not in decls:
                raise AnalysisError(f"stage {stage.name!r} is not in the declaration set")
    return ReservationTable(stages=route.stages, length=len(route), marks=route.marks.copy())


def forbidden_latencies(table: ReservationTable) -> frozenset[int]:
    """All pairwise mark differences within a single stage's row.

    Latency 0 (two issues in the same cycle) is always forbidden and is not
    stored.  Walking a row's marks from the last, ``row`` holds the marks
    from ``mark`` on as bits, and bit ``d`` of ``row >> mark`` is set when a
    mark lies ``d`` cycles after ``mark``: one OR per mark.
    """
    forbidden = 0
    for marks in table.marks.values():
        row = 0
        for mark in reversed(marks):
            row |= 1 << mark
            forbidden |= row >> mark
    return frozenset(d for d, bit in enumerate(bin(forbidden >> 1)[:1:-1], 1) if bit == "1")


# ---------------------------------------------------------------------------
# Collision vector


class CollisionVector(Value):
    """Forbidden latencies 1..L-1 as bits, lowest latency first.

    ``bits[d-1]`` is True exactly when latency ``d`` is forbidden.
    """

    length: int
    bits: tuple[bool, ...]

    def __init__(self, length: int, bits: tuple[bool, ...]):
        if length < 1 or len(bits) != length - 1:
            raise AnalysisError("collision vector needs L >= 1 and one bit per latency 1..L-1")
        super().__init__(length, bits)

    def is_forbidden(self, latency: int) -> bool:
        if 1 <= latency < self.length:
            return self.bits[latency - 1]
        return latency == 0

    @property
    def forbidden(self) -> frozenset[int]:
        return frozenset(d for d in range(1, self.length) if self.bits[d - 1])

    def bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def collision_vector(forbidden: frozenset[int], length: int) -> CollisionVector:
    """Transcribe a forbidden-latency set into its collision vector."""
    if any(d >= length or d < 1 for d in forbidden):
        raise AnalysisError(
            f"forbidden latencies {sorted(forbidden)} out of range for table length {length}"
        )
    bits = tuple(d in forbidden for d in range(1, length))
    return CollisionVector(length=length, bits=bits)


# ---------------------------------------------------------------------------
# Issue cycles


class IssueCycle(Value):
    """A repeating sequence of issue latencies."""

    latencies: tuple[int, ...]

    def __init__(self, latencies: tuple[int, ...]):
        if not latencies:
            raise AnalysisError("an issue cycle must contain at least one latency")
        super().__init__(latencies)

    @property
    def average(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(self.latencies), len(self.latencies))

    def float_average(self) -> float:
        """``float(self.average)`` without the Fraction: int division rounds correctly."""
        return sum(self.latencies) / len(self.latencies)

    def describe(self) -> str:
        body = ",".join(str(d) for d in self.latencies)
        return f"({body})"


def _initial_state(vector: CollisionVector) -> int:
    """The collision vector as an int: bit ``d`` set when latency ``d`` is forbidden."""
    return sum(1 << d for d, forbidden in enumerate(vector.bits, 1) if forbidden)


def _state_graph(vector: CollisionVector) -> list[dict[int, int]]:
    """The collision-state graph from the initial vector, cheapest edges only.

    ``graph[i]`` maps each successor index of state i to the smallest
    latency that reaches it, in ascending latency; state 0 is the initial
    vector and indices follow breadth-first order.  Latency d is permitted
    when bit d of the state is clear.  From the first d with ``state >> d``
    zero, every latency leads back to the initial state, so d is the
    cheapest of them; when no d below L does, the restart latency L is.
    Int-to-int dicts are not tracked by the garbage collector.
    """
    initial = _initial_state(vector)
    index = {initial: 0}
    states = [initial]
    graph: list[dict[int, int]] = []
    for state in states:
        out: dict[int, int] = {}
        rest = state
        for d in range(1, state.bit_length()):
            rest >>= 1
            if not rest & 1:
                dest = rest | initial
                v = index.get(dest)
                if v is None:
                    v = index[dest] = len(states)
                    states.append(dest)
                if v not in out:
                    out[v] = d
        if 0 not in out:
            out[0] = state.bit_length() or 1
        graph.append(out)
    return graph


def _greedy_walk(vector: CollisionVector):
    """Endless greedy issue from an empty pipeline.

    Yields (latency, collision state after it): each latency is the smallest
    one the current state permits, or L when none below L is.
    """
    length = vector.length
    initial = _initial_state(vector)
    state = initial
    while True:
        for d in range(1, length):
            if not state & (1 << d):
                break
        else:
            d = length
        state = ((state >> d) | initial) if d < length else initial
        yield d, state


def greedy_cycle(vector: CollisionVector) -> IssueCycle:
    """Issue cycle obtained by always taking the smallest permissible latency."""
    seen = {_initial_state(vector): 0}
    latencies: list[int] = []
    for d, state in _greedy_walk(vector):
        latencies.append(d)
        if state in seen:
            return IssueCycle(tuple(latencies[seen[state] :]))
        seen[state] = len(latencies)


def minimal_average_latency(vector: CollisionVector) -> IssueCycle:
    """An issue cycle of minimal average latency (MAL).

    The MAL is the minimum mean cycle of the reachable collision-state
    graph.  Without a reservation table the only lower bound at hand is 1,
    so after checking that one, Howard policy iteration finds the MAL in
    exact arithmetic.  The returned cycle is the first one a depth-first search meets in the tight
    subgraph of the shortest-path potentials from the initial state under
    weights (latency - MAL).  Those potentials are unique, so the cycle does
    not depend on how the MAL was found.  Repeating the returned cycle from
    an empty pipeline is always conflict-free: states reached from the
    initial vector are subsets of the states reached along the cycle itself,
    so every latency of the cycle stays permissible.
    """
    return _minimal_cycle(vector, 1)


def _minimal_cycle(vector: CollisionVector, lower_bound: int) -> IssueCycle:
    """MAL cycle; ``lower_bound`` must not exceed any cycle mean.  Howard
    runs only when no cycle attains the bound."""
    graph = _state_graph(vector)
    p, q = lower_bound, 1
    cycle = _tight_cycle(graph, p, q)
    if cycle is None:
        p, q = _howard_mal(graph)
        cycle = _tight_cycle(graph, p, q)
    assert cycle is not None, "tight subgraph always contains a cycle"
    result = IssueCycle(tuple(cycle))
    assert sum(result.latencies) * q == p * len(result.latencies)
    return result


def _tight_cycle(graph: list[dict[int, int]], p: int, q: int):
    """A cycle of average p/q from the tight subgraph, or None.

    p/q must not exceed the MAL.  Shortest-path potentials from state 0
    under the integer weights (w*q - p) then exist; a FIFO queue relaxes
    the out-edges of a state only after its potential drops.  An edge is
    tight when it attains its head's potential.  Any cycle of tight edges
    telescopes to total zero, i.e. averages exactly p/q; one exists exactly
    when p/q is the MAL.  Potentials are unique, and with q >= 1 a dearer
    edge to the same state is never tight, so the graph of cheapest edges
    has the same tight subgraph, in the same order, as the full graph.
    """
    n = len(graph)
    pot: list[int | None] = [None] * n
    pot[0] = 0
    queued = [False] * n
    queued[0] = True
    queue = [0]
    for u in queue:
        queued[u] = False
        base = pot[u] - p
        for v, w in graph[u].items():
            cand = base + w * q
            if pot[v] is None or cand < pot[v]:
                pot[v] = cand
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    return _find_cycle(n, lambda u: [
        (v, w) for v, w in graph[u].items() if pot[u] + w * q - p == pot[v]
    ])


def _howard_mal(graph: list[dict[int, int]]) -> tuple[int, int]:
    """Minimum cycle mean p/q, as (p, q), by Howard policy iteration
    (Cochet-Terrasson et al.).

    A policy picks one out-edge per state of the cheapest-edge ``graph``, as
    a (successor index, latency) pair; it starts from each state's first,
    smallest-latency edge.  Each state's value is the mean
    ``p/q`` (in lowest terms) of the policy cycle it runs into, and its
    potential, scaled by ``q`` to stay integral, is its distance to that
    cycle's smallest state under weights (w*q - p).  The policy then moves a
    state to a successor of smaller mean or, failing any such move, to one of
    equal mean and smaller potential.  Every move strictly improves the
    policy, so the loop ends; at the end every state's mean is the MAL, as
    every state reaches every other.
    """
    n = len(graph)
    policy = [next(iter(out.items())) for out in graph]
    while True:
        num = [0] * n
        den = [0] * n
        pot = [0] * n
        visit = [-1] * n
        for start in range(n):
            if den[start]:
                continue
            path = []
            u = start
            while not den[u] and visit[u] != start:
                visit[u] = start
                path.append(u)
                u = policy[u][0]
            if not den[u]:
                # u closes a new policy cycle: path[path.index(u):].
                at = path.index(u)
                cycle = path[at:]
                del path[at:]
                total = sum(policy[c][1] for c in cycle)
                g = gcd(total, len(cycle))
                p, q = total // g, len(cycle) // g
                root = cycle.index(min(cycle))
                cycle = cycle[root:] + cycle[:root]
                num[cycle[0]], den[cycle[0]] = p, q
                path.extend(cycle[1:])
            for c in reversed(path):
                v, w = policy[c]
                p, q = num[v], den[v]
                num[c], den[c] = p, q
                pot[c] = pot[v] + w * q - p

        improved = False
        for u in range(n):
            best_p, best_q = num[u], den[u]
            for edge in graph[u].items():
                v = edge[0]
                if num[v] * best_q < best_p * den[v]:
                    best_p, best_q = num[v], den[v]
                    policy[u] = edge
                    improved = True
        if improved:
            continue
        for u in range(n):
            p, q = num[u], den[u]
            best = pot[u]
            for edge in graph[u].items():
                v, w = edge
                if num[v] == p and den[v] == q and pot[v] + w * q - p < best:
                    best = pot[v] + w * q - p
                    policy[u] = edge
                    improved = True
        if not improved:
            return num[0], den[0]


def _find_cycle(n: int, edges_of) -> list[int] | None:
    """Latencies of the first cycle a depth-first search meets, or None.

    ``edges_of(u)`` lists the (successor, latency) edges of state u in search
    order; it is called once per state the search enters, starting from
    each unvisited state in index order.  The first edge back into the
    current path closes the cycle.
    """
    done = [False] * n
    for start in range(n):
        if done[start]:
            continue
        # Frames carry the latency into their state, so the cycle's
        # latencies are read straight off the path suffix.
        stack = [(start, 0, iter(edges_of(start)))]
        depth = {start: 0}  # states on the current path
        while stack:
            for v, w in stack[-1][2]:
                if v in depth:
                    return [frame[1] for frame in stack[depth[v] + 1 :]] + [w]
                if not done[v]:
                    break
            else:
                u = stack.pop()[0]
                done[u] = True
                del depth[u]
                continue
            depth[v] = len(stack)
            stack.append((v, w, iter(edges_of(v))))
    return None


# ---------------------------------------------------------------------------
# Issue schedule


def issue_times(issue: IssueSpec, vector: CollisionVector) -> Iterator[int]:
    """Each input's issue time: every k under ``fixed:k``, the greedy walk's
    running sum under greedy, and none under eager.  Latencies count route
    steps, so the times are ns only when every stage has delay 1."""
    if issue.kind == "fixed":
        return count(0, issue.interval)
    if issue.kind == "greedy":
        return accumulate(map(itemgetter(0), _greedy_walk(vector)), initial=0)
    return iter(())


def issue_warnings(issue: IssueSpec, vector: CollisionVector) -> tuple[str, ...]:
    """A warning naming the first issue time below L that is a forbidden
    latency from issue 0: under ``fixed:k``, the smallest forbidden multiple
    of k.  Greedy times are permissible by construction; eager has none."""
    for time in islice(issue_times(issue, vector), 1, None):
        if time >= vector.length:
            break
        if vector.is_forbidden(time):
            return (
                f"fixed issue interval {issue.interval} collides with forbidden latency "
                f"{time}; expect structural stalls",
            )
    return ()


# ---------------------------------------------------------------------------
# Composite report


class AnalysisReport(Value):
    """Everything the analysis derives from one route."""

    route: Route
    table: ReservationTable
    forbidden: tuple[int, ...]
    vector: CollisionVector
    greedy: IssueCycle
    mal_cycle: IssueCycle

    @property
    def mal(self) -> Fraction:
        return self.mal_cycle.average

    def to_mapping(self) -> dict:
        """Plain-data form used by the structured-text report."""
        return {
            "route": [sorted(s.name for s in step) for step in self.route.steps],
            "length": self.table.length,
            "marks": {s.name: list(self.table.marks[s]) for s in self.table.stages},
            "forbidden_latencies": list(self.forbidden),
            "collision_vector": self.vector.bitstring(),
            "greedy_cycle": {
                "latencies": list(self.greedy.latencies),
                "average": self.greedy.float_average(),
            },
            "mal_cycle": {
                "latencies": list(self.mal_cycle.latencies),
                "average": self.mal_cycle.float_average(),
            },
            "mal": self.mal_cycle.float_average(),
            "mal_lower_bound": self.table.max_row_marks(),
        }


def analyze(expr: ExprLike | Route, decls: StageSet | None = None) -> AnalysisReport:
    """Run the full analysis pipeline for one expression or route."""
    route = expr if isinstance(expr, Route) else flatten(expr)
    table = reservation_table(route, decls)
    forbidden = forbidden_latencies(table)
    vector = collision_vector(forbidden, table.length)
    greedy = greedy_cycle(vector)
    mal_cycle = _minimal_cycle(vector, table.max_row_marks())
    if sum(mal_cycle.latencies) < table.max_row_marks() * len(mal_cycle.latencies):
        raise AnalysisError(
            "internal error: MAL fell below the reservation-table lower bound"
        )
    return AnalysisReport(
        route=route,
        table=table,
        forbidden=tuple(sorted(forbidden)),
        vector=vector,
        greedy=greedy,
        mal_cycle=mal_cycle,
    )
