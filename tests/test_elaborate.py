import random

import pytest

import pipesim as ps
from oracles import random_expr, replay_routing_tables


@pytest.fixture
def looped():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))
    return decls, route


def test_complex_route_node_counts(looped):
    decls, route = looped
    netlist = ps.elaborate(route, decls)
    assert len(netlist.stages) == 3
    assert len(netlist.routers) == 4  # entry + one per stage


def test_linear_route_is_a_chain():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    netlist = ps.elaborate(ps.flatten(ps.parse("S1 >> S2 >> S3", decls)), decls)
    pairs = [(e.src, e.dst) for e in netlist.edges]
    assert pairs == [
        ("entry", "S1"),
        ("S1", "r_S1"),
        ("S2", "r_S2"),
        ("S3", "r_S3"),
        ("r_S1", "S2"),
        ("r_S2", "S3"),
        ("r_S3", "exit"),
    ]


def test_fork_fans_out_and_converges():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    netlist = ps.elaborate(ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls)), decls)
    out_of_r1 = [e.dst for e in netlist.edges if e.src == "r_S1"]
    assert out_of_r1 == ["S2", "S3"]
    into_s4 = [e.src for e in netlist.edges if e.dst == "S4"]
    assert sorted(into_s4) == ["r_S2", "r_S3"]


def test_reuse_does_not_duplicate_stage_nodes(looped):
    decls, route = looped
    netlist = ps.elaborate(route, decls)
    assert [s.name for s in netlist.stages] == ["S1", "S2", "S3"]


# -- routing tables ----------------------------------------------------------


def test_routing_table_with_feedback(looped):
    decls, route = looped
    table = ps.routing_table(route, decls["S3"])
    assert table.entries == {
        2: frozenset({decls["S1"]}),
        4: frozenset({decls["S3"]}),
        5: frozenset({decls["S1"]}),
    }


def test_routing_table_with_exit(looped):
    decls, route = looped
    table = ps.routing_table(route, decls["S2"])
    assert table.lookup(1) == frozenset({decls["S3"]})
    assert table.lookup(7) is ps.EXIT


def test_routing_table_linear():
    decls = ps.declare_stages(["S1", "S2"])
    route = ps.flatten(ps.parse("S1 >> S2", decls))
    assert ps.routing_table(route, decls["S1"]).entries == {
        0: frozenset({decls["S2"]})
    }


def test_routing_table_requires_stage_in_route():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 >> S2", decls))
    with pytest.raises(ps.ElaborationError):
        ps.routing_table(route, decls["S3"])


# -- structural properties ---------------------------------------------------


def test_replay_reconstructs_route():
    rng = random.Random(101)
    for _ in range(100):
        decls, expr = random_expr(rng)
        route = ps.flatten(expr)
        netlist = ps.elaborate(route, decls)
        assert replay_routing_tables(netlist) == route
        assert len(netlist.stages) == len(route.stages)
        assert len(netlist.routers) == len(route.stages) + 1


def test_no_channel_connects_two_stages_directly():
    rng = random.Random(103)
    for _ in range(30):
        decls, expr = random_expr(rng)
        netlist = ps.elaborate(ps.flatten(expr), decls)
        stage_names = {s.name for s in netlist.stages}
        router_side = {r.name for r in netlist.routers} | {"exit"}
        for edge in netlist.edges:
            # every channel has a router (or the exit sink) on one side
            assert not (edge.src in stage_names and edge.dst in stage_names)
            assert edge.src in router_side or edge.dst in router_side


def test_stage_nodes_have_one_input_and_one_output_channel():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))
    netlist = ps.elaborate(route, decls)
    for stage in netlist.stages:
        outs = [e for e in netlist.edges if e.src == stage.name]
        assert len(outs) == 1  # one output channel, to the stage's router
        ins = [e for e in netlist.edges if e.dst == stage.name]
        assert len(ins) >= 1  # shared input latch, possibly several writers


# -- DOT export ---------------------------------------------------------------


def test_dot_counts_for_complex_route(looped):
    decls, route = looped
    dot = ps.to_dot(ps.elaborate(route, decls))
    assert dot.count("shape=box") == 3
    assert dot.count("shape=circle") == 4


def test_dot_single_stage():
    decls = ps.declare_stages(["S1"])
    dot = ps.to_dot(ps.elaborate(ps.flatten(ps.StageRef(decls["S1"])), decls))
    assert dot.count("shape=box") == 1
    assert dot.count("shape=circle") == 2
    assert '"entry" -> "S1";' in dot
    assert '"r_S1" -> "exit";' in dot


def test_dot_fork_has_fanout_pair():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    dot = ps.to_dot(ps.elaborate(ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls)), decls))
    assert '"r_S1" -> "S2";' in dot
    assert '"r_S1" -> "S3";' in dot


def test_dot_is_deterministic(looped):
    decls, route = looped
    netlist = ps.elaborate(route, decls)
    assert ps.to_dot(netlist) == ps.to_dot(netlist)


def test_unrouted_and_undeclared_stages_are_rejected():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 >> S2", decls))
    with pytest.raises(ps.ElaborationError, match="^no router for stage 'S3'$"):
        ps.elaborate(route, decls).router_of(decls["S3"])
    with pytest.raises(ps.ElaborationError,
                       match="^stage 'S2' is not in the declaration set$"):
        ps.elaborate(route, ps.declare_stages(["S1"]))
