"""Netlist elaboration.

Expands a route into the simulatable module graph: one node per distinct
stage, one transaction router per stage output plus an entry router, and the
channels between them.  Stages keep exactly one input and one output; all
fan-out (forks, feedback) and fan-in happens in routers, each of which owns a
table mapping the step a transaction just completed to the next step's
stages, or to the exit.
"""

from __future__ import annotations

from typing import Mapping, Union

from ._value import Value
from .dsl import Route, StageId, StageSet, stages_repr
from .errors import PipelineError
from .policy import ChannelKind, CheckedConfig, StageConfig, for_route

ENTRY = "entry"
EXIT_NODE = "exit"


class ElaborationError(PipelineError):
    """The route cannot be elaborated as requested."""


class _ExitMarker:
    """Sentinel destination: the transaction leaves the pipeline."""

    def __repr__(self) -> str:
        return "EXIT"

    def __reduce__(self):
        # Copies and pickles resolve to the one module-level marker, so
        # ``dest is EXIT`` still holds for a copied table.
        return "EXIT"


EXIT = _ExitMarker()

Destination = Union[frozenset, _ExitMarker]


class RoutingTable(Value):
    """Per-router forwarding table.

    Keys are the step indices a transaction has just completed when it
    reaches this router (-1 for fresh injections at the entry router); values
    are the stage set of the next step, or EXIT after the final step.
    """

    entries: Mapping[int, Destination]

    def __repr__(self) -> str:
        return "RoutingTable(entries={" + ", ".join(
            f"{i}: {dest!r}" if dest is EXIT else f"{i}: {stages_repr(dest)}"
            for i, dest in self.entries.items()) + "})"

    def lookup(self, completed_step: int) -> Destination | None:
        return self.entries.get(completed_step)

    def destinations(self) -> tuple[Destination, ...]:
        return tuple(self.entries[k] for k in sorted(self.entries))


class RouterNode(Value):
    name: str
    stage: StageId | None  # None for the entry router
    table: RoutingTable


class ChannelEdge(Value):
    """Directed channel between two netlist nodes (router/stage or markers).

    ``kind`` is the channel kind of the stage the edge enters or leaves; the
    edge to the exit carries no channel and has kind None.
    """

    src: str
    dst: str
    kind: ChannelKind | None


class Netlist(Value):
    """Elaborated pipeline structure, ready for simulation or rendering."""

    route: Route
    stages: tuple[StageId, ...]
    routers: tuple[RouterNode, ...]
    edges: tuple[ChannelEdge, ...]

    def router_of(self, stage: StageId) -> RouterNode:
        for router in self.routers:
            if router.stage == stage:
                return router
        raise ElaborationError(f"no router for stage {stage.name!r}")

    @property
    def entry_router(self) -> RouterNode:
        return self.routers[0]


def router_name(stage: StageId) -> str:
    return f"r_{stage.name}"


def routing_table(route: Route, stage: StageId) -> RoutingTable:
    """Forwarding table for the router attached to ``stage``'s output.

    For every step index i at which the stage is busy, the entry maps i to
    the stages of step i+1, or to EXIT when i is the final step.
    """
    marks = route.marks.get(stage)
    if marks is None:
        raise ElaborationError(f"stage {stage.name!r} does not appear in the route")
    steps = route.steps
    return RoutingTable(entries={
        i: frozenset(steps[i + 1]) if i + 1 < len(steps) else EXIT for i in marks
    })


def elaborate(
    route: Route,
    decls: StageSet | None = None,
    checked: CheckedConfig | None = None,
) -> Netlist:
    """Expand a route into stage nodes, routers, and channel edges.

    A stage is instantiated once no matter how often the route reuses it;
    feedback is realized purely by routing.  Edges take their stage's channel
    kind from ``checked``, or else the :class:`.StageConfig` default.  A
    ``checked`` built for ``route`` is used as it is; one built for another
    route is checked against ``route``.
    """
    if decls is not None:
        for stage in route.stages:
            if stage not in decls:
                raise ElaborationError(
                    f"stage {stage.name!r} is not in the declaration set"
                )
    if checked is not None:
        checked = for_route(route, checked)
    stages = route.stages

    routers = [
        RouterNode(
            name=ENTRY,
            stage=None,
            table=RoutingTable(entries={-1: frozenset(route.steps[0])}),
        )
    ]
    for stage in stages:
        routers.append(
            RouterNode(
                name=router_name(stage),
                stage=stage,
                table=routing_table(route, stage),
            )
        )

    edges: list[ChannelEdge] = []
    seen: set[tuple[str, str]] = set()

    def kind_of(stage: StageId) -> ChannelKind:
        return StageConfig.channels if checked is None else checked.config_of(stage).channels

    def add_edge(src: str, dst: str, kind: ChannelKind | None) -> None:
        if (src, dst) not in seen:
            seen.add((src, dst))
            edges.append(ChannelEdge(src=src, dst=dst, kind=kind))

    for stage in sorted(route.steps[0], key=lambda s: s.ordinal):
        add_edge(ENTRY, stage.name, kind_of(stage))
    for stage in stages:
        add_edge(stage.name, router_name(stage), kind_of(stage))
    for router in routers[1:]:
        for dest in router.table.destinations():
            if dest is EXIT:
                add_edge(router.name, EXIT_NODE, None)
            else:
                for target in sorted(dest, key=lambda s: s.ordinal):
                    add_edge(router.name, target.name, kind_of(target))

    return Netlist(
        route=route,
        stages=stages,
        routers=tuple(routers),
        edges=tuple(edges),
    )


def to_dot(netlist: Netlist) -> str:
    """Deterministic DOT rendering: stages as boxes, routers as circles."""
    lines = ["digraph pipeline {", "  rankdir=LR;"]
    lines.append(f'  "{ENTRY}" [shape=circle];')
    for stage in netlist.stages:
        lines.append(f'  "{stage.name}" [shape=box];')
    for router in netlist.routers[1:]:
        lines.append(f'  "{router.name}" [shape=circle];')
    lines.append(f'  "{EXIT_NODE}" [shape=plaintext];')
    for edge in netlist.edges:
        style = " [style=dashed]" if edge.kind is ChannelKind.SIGNAL else ""
        lines.append(f'  "{edge.src}" -> "{edge.dst}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
