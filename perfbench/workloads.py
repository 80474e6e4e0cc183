"""Seeded workload generators and the benchmark's own reference model.

Every workload is a pipeline definition file with one pipeline plus a file
of integer inputs.  The benchmark writes them to disk and the program
sees only those files.  The seed picks one of ``VARIANTS`` recorded input
sets (``seed % VARIANTS``), so every seed has golden output digests recorded
from the reference commit.

The reference model here (reservation-table marks, forbidden latencies, the
greedy cycle, the collision-state graph and the fold of the stage functions
along a route) is written from the definitions, independently of pipesim, and
is what the correctness checks compare the program's outputs against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 32

# Transactions per simulated run of feedback-greedy.  A core of a shared host
# flips between a fast and a slow state every few seconds; an operation of
# about a second mostly sees one state, so the reference timings taken around
# it (see run.Clock) scale it well.
SIM_INPUTS = 4000
# Transactions in the short greedy run of sparse-deep.
SHORT_RUN_INPUTS = 3

# Every workload file defines one unnamed pipeline, which pipesim calls
# "main"; it is the one simulated and checked.
MAIN = "main"


@dataclass(frozen=True)
class Stage:
    name: str
    fn: str  # source text, as written to the file

    def block(self) -> str:
        return f'stage {self.name} {{ fn = "{self.fn}"; delay = 1; }}'


@dataclass
class Workload:
    """One generated workload: the file text, its route and the commands."""

    name: str
    variant: int
    stages: list[Stage]
    expr: str  # the expression text of the main pipeline
    route: list[tuple[str, ...]]  # the bench's own flattening
    inputs: list[int]
    # CLI argv after "pipesim"; "{pipe}", "{inputs}" and "{csv}" are
    # replaced by the generated file paths.
    commands: list[list[str]]

    def text(self) -> str:
        lines = [f"# {self.name}, variant {self.variant}"]
        lines += [stage.block() for stage in self.stages]
        lines.append(f"pipeline = {self.expr};")
        return "\n".join(lines) + "\n"

    def inputs_text(self) -> str:
        return "\n".join(str(v) for v in self.inputs) + "\n"


# ---------------------------------------------------------------------------
# Expressions


def flatten_text(expr: str) -> list[tuple[str, ...]]:
    """The route of a ``>>``/``*`` expression, one stage per step."""
    steps: list[tuple[str, ...]] = []
    for term in expr.split(">>"):
        name, _, count = (part.strip() for part in term.partition("*"))
        steps += [(name,)] * int(count or 1)
    return steps


def _make(name, variant, stages, expr, commands, inputs) -> Workload:
    return Workload(name, variant, stages, expr, flatten_text(expr), inputs, commands)


def _inputs(name: str, variant: int, count: int) -> list[int]:
    rng = random.Random(f"{name}/{variant}")
    return [rng.randint(-999, 999) for _ in range(count)]


_RUN = ["run", "{pipe}", "--inputs", "{inputs}", "--format", "json-like", "--trace", "{csv}"]


def feedback_greedy(variant: int) -> Workload:
    stages = [
        Stage("S1", "data + 2*sqr(orig)"),
        Stage("S2", "data + 4*orig"),
        Stage("S3", "data - 7"),
    ]
    return _make(
        "feedback-greedy", variant, stages, "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2",
        [_RUN], _inputs("feedback-greedy", variant, SIM_INPUTS),
    )


def sparse_route(length: int, changes: int) -> list[str]:
    """ROADMAP's sparse(L, k): L distinct stages, k seeded back-references."""
    steps = [f"S{i}" for i in range(length)]
    rng = random.Random(length)
    for _ in range(changes):
        a, b = rng.sample(range(length), 2)
        steps[max(a, b)] = steps[min(a, b)]
    return steps


def sparse_deep(variant: int) -> Workload:
    stages = [Stage(f"S{i}", f"data + {i + 1}*orig") for i in range(22)]
    return _make(
        "sparse-deep", variant, stages, " >> ".join(sparse_route(22, 3)),
        [["analyze", "{pipe}", "--format", "json-like"], _RUN],
        _inputs("sparse-deep", variant, SHORT_RUN_INPUTS),
    )


WORKLOADS = {
    "feedback-greedy": feedback_greedy,
    "sparse-deep": sparse_deep,
}


def generate(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed % VARIANTS)


# ---------------------------------------------------------------------------
# Reference model


def forbidden(steps: list[tuple[str, ...]]) -> frozenset[int]:
    """Pairwise differences of the steps at which one stage is busy."""
    marks: dict[str, list[int]] = {}
    for i, step in enumerate(steps):
        for stage in step:
            marks.setdefault(stage, []).append(i)
    return frozenset(b - a for row in marks.values() for a in row for b in row if b > a)


def max_row_marks(steps: list[tuple[str, ...]]) -> int:
    counts: dict[str, int] = {}
    for step in steps:
        for stage in step:
            counts[stage] = counts.get(stage, 0) + 1
    return max(counts.values())


def _initial(forbid: frozenset[int]) -> int:
    state = 0
    for d in forbid:
        state |= 1 << d
    return state


def _next(state: int, initial: int, d: int, length: int) -> int:
    return ((state >> d) | initial) if d < length else initial


def greedy_average(forbid: frozenset[int], length: int) -> Fraction:
    """Average latency of the cycle reached by always issuing as soon as allowed."""
    initial = _initial(forbid)
    state, seen, latencies = initial, {initial: 0}, []
    while True:
        d = next((d for d in range(1, length) if not state >> d & 1), length)
        state = _next(state, initial, d, length)
        latencies.append(d)
        if state in seen:
            cycle = latencies[seen[state]:]
            return Fraction(sum(cycle), len(cycle))
        seen[state] = len(latencies)


def state_graph(forbid: frozenset[int], length: int) -> tuple[int, int]:
    """(states, edges) of the collision-state graph, restart latency L included."""
    initial = _initial(forbid)
    seen, frontier, edges = {initial}, [initial], 0
    while frontier:
        state = frontier.pop()
        for d in range(1, length + 1):
            if d < length and state >> d & 1:
                continue
            edges += 1
            dest = _next(state, initial, d, length)
            if dest not in seen:
                seen.add(dest)
                frontier.append(dest)
    return len(seen), edges


def _stage_fn(source: str):
    """The Python reading of the stage functions this module writes."""
    if source == "data + 2*sqr(orig)":
        return lambda o, d: d + 2.0 * (o * o)
    if source == "data - 7":
        return lambda o, d: d - 7.0
    head, _, tail = source.partition(" + ")
    assert head == "data" and tail.endswith("*orig"), source
    k = float(tail.split("*")[0])
    return lambda o, d: d + k * o


def fold(workload: Workload, orig: float) -> float:
    """Expected ``data`` of a transaction after the whole route."""
    fns = {stage.name: _stage_fn(stage.fn) for stage in workload.stages}
    data = 0.0
    for (stage,) in workload.route:
        data = fns[stage](orig, data)
    return data
