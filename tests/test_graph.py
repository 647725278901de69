"""Edge-list parsing, validation, and the graph generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netinfluence import (
    GameConfig,
    Graph,
    GraphFormatError,
    build_counterexample,
    dump_graph,
    load_graph,
    payoff_table,
    random_graph,
    validate,
)

from oracles import load_graph_oracle, random_graph_edges_oracle, validate_oracle

TWO_CYCLE = "nodes 2\nedge 0 1 1.0\nedge 1 0 1.0\n"

# 3-cycle whose node 2 receives 0.4 + 0.4 = 0.8 of incoming weight.
DEFICIENT = "nodes 3\nedge 0 1 1.0\nedge 1 2 0.4\nedge 0 2 0.4\nedge 2 0 1.0\n"


def test_parse_two_cycle():
    g = load_graph(TWO_CYCLE)
    assert g.node_count == 2
    assert g.edges == ((0, 1, 1.0), (1, 0, 1.0))


def test_parse_skips_comments_and_blank_lines():
    text = "# header comment\n\nnodes 2\n# middle\nedge 0 1 1.0\n\nedge 1 0 1.0\n"
    assert load_graph(text).edges == ((0, 1, 1.0), (1, 0, 1.0))


def test_parse_accepts_iterable_of_lines():
    g = load_graph(["nodes 2", "edge 0 1 1.0", "edge 1 0 1.0"])
    assert g.node_count == 2


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", None, "missing 'nodes"),
        ("# only comments\n", None, "missing 'nodes"),
        ("vertices 2\n", 1, "nodes <count>"),
        ("nodes two\n", 1, "bad node count"),
        ("nodes 0\n", 1, "at least one node"),
        ("nodes 2\nlink 0 1 1.0\n", 2, "edge <source> <target> <weight>"),
        ("nodes 2\nedge 0 1\n", 2, "edge <source> <target> <weight>"),
        ("nodes 2\nedge 0 x 1.0\n", 2, "bad edge tokens"),
        ("nodes 2\nedge 0 2 1.0\n", 2, "unknown node id"),
        ("nodes 2\nedge 0 0 1.0\n", 2, "self-loop"),
        ("nodes 2\nedge 0 1 0.0\n", 2, "non-positive weight"),
        ("nodes 2\nedge 0 1 -0.5\n", 2, "non-positive weight"),
        ("nodes 2\nedge 0 1 inf\n", 2, "non-finite weight"),
        ("nodes 2\nedge 0 1 nan\n", 2, "non-finite weight"),
        ("nodes 2\nedge 0 1 0.5\nedge 0 1 0.5\n", 3, "duplicate edge"),
        ("nodes 2\nedge 0 99999999999999999999 1\n", 2, "references an unknown node id"),
        ("nodes 2\nedge -99999999999999999999 1 1\n", 2, "references an unknown node id"),
        ("nodes 10000000000000000000\nedge 0 1 1\n", 1, "at most 9223372036854775807 nodes"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphFormatError) as exc_info:
        load_graph(text)
    assert fragment in str(exc_info.value)
    assert exc_info.value.line == line


@st.composite
def edge_documents(draw):
    """Edge-list documents: well formed, or broken in a few places.

    A per-document rate decides how often a token or line is replaced by an
    odd one: ids out of range (some beyond int64) or not integers (``1_0``
    is one), weights that are zero, negative, ``nan``, ``inf``, unparsable or
    large enough for their sums to overflow, self-loops, repeated pairs,
    comments, blank lines, lines with the wrong tokens and bad headers.
    """
    odd = draw(st.sampled_from([0, 5, 15, 30]))  # percent

    def pick(common, rare):
        return draw(st.sampled_from(rare if draw(st.integers(0, 99)) < odd else common))

    n = pick([2, 3, 4, 5], [1])
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True)) if pairs else []
    lines = [pick(["# comment"], ["", "  # indented"]) for _ in range(draw(st.integers(0, 1)))]
    bad_headers = ["", "nodes", "vertices 3", "nodes 0", "nodes -2", "nodes two", "nodes 1_0",
                   "nodes 10000000000", f"  nodes {n}  "]
    lines.append(pick([f"nodes {n}"], bad_headers))
    bad_ids = ["-1", str(n), "1_0", "x", "99999999999999999999", "-99999999999999999999"]
    bad_weights = ["1e-320", "1_0.5", "0", "-0.5", "-0.0", "nan", "inf", "-inf", "w"]
    bad_lines = ["", "# comment", "edge 0 1", "edge 0 1 1 1", "link 0 1 1", "nodes 3"]
    for u, v in chosen:
        u, v = pick([(u, v)], [(u, u), chosen[0]])
        ids = [pick([str(x)], bad_ids) for x in (u, v)]
        weight = pick(["1", "0.5", "0.25", "2.5", "1e308"], bad_weights)
        lines.append(pick([f"edge {ids[0]} {ids[1]} {weight}"], bad_lines))
    return "\n".join(lines) + "\n"


def _parse(parser, text, normalize):
    try:
        g = parser(text, normalize=normalize)
    except GraphFormatError as exc:
        return str(exc), exc.line
    return (g.node_count, g.edges) if isinstance(g, Graph) else g


@settings(max_examples=300)
@given(edge_documents(), st.booleans())
@example("nodes 3\nedge 0 x 1\nedge 0 1\n", False)
@example("nodes 3\nedge 0 1 1e308\nedge 2 1 1e308\nedge 1 0 1\nedge 1 2 1\n", True)
@example("nodes 3\nedge 0 1 1e-320\nedge 2 1 1e308\nedge 1 0 1\n", True)
@example("nodes 4\nedge 1 3 1\nedge 0 1 1\nedge 1 3 1\n", False)
def test_load_graph_matches_line_by_line_oracle(text, normalize):
    assert _parse(load_graph, text, normalize) == _parse(load_graph_oracle, text, normalize)


EXACT = ((0, 1, 0.5), (0, 2, 1.0), (1, 0, 1.0), (2, 1, 0.5))


def test_equal_graphs_hash_equal_however_built():
    built = Graph(3, EXACT)
    parsed = load_graph("nodes 3\n" + "".join(f"edge {u} {v} {w}\n" for u, v, w in EXACT))
    round_trip = load_graph(dump_graph(built))
    for other in (parsed, round_trip):
        assert other == built and hash(other) == hash(built)
        assert other.edges == EXACT
    heavier = Graph(3, EXACT[:3] + ((2, 1, 0.75),))
    assert heavier != built
    assert Graph(4, EXACT) != built


def test_payoff_table_is_shared_by_equal_graphs():
    first = payoff_table(GameConfig(Graph(3, EXACT), (1, 1), horizon=2))
    second = payoff_table(GameConfig(load_graph(dump_graph(Graph(3, EXACT))), (1, 1), horizon=2))
    assert second is first


def test_graph_arrays_are_read_only():
    g = Graph(3, EXACT)
    assert (g.src.dtype, g.dst.dtype, g.weight.dtype) == (np.int64, np.int64, np.float64)
    with pytest.raises(ValueError):
        g.weight[0] = 2.0
    with pytest.raises(AttributeError):
        g.node_count = 4


def test_validate_two_cycle_clean():
    report = validate(load_graph(TWO_CYCLE))
    assert report.stochastic and report.strongly_connected
    assert report.offending_nodes == ()
    assert report.ok


def test_validate_reports_stochastic_defect():
    report = validate(load_graph(DEFICIENT))
    assert not report.stochastic
    assert report.strongly_connected
    assert len(report.offending_nodes) == 1
    node, defect = report.offending_nodes[0]
    assert node == 2
    assert defect == pytest.approx(0.2, abs=1e-12)
    assert not report.ok


def test_normalize_rescales_incoming_weights():
    g = load_graph(DEFICIENT, normalize=True)
    weights = sorted(w for _, v, w in g.edges if v == 2)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-15)
    assert validate(g).ok


def test_normalize_rejects_overflowing_weight_sum():
    text = "nodes 3\nedge 0 1 1e308\nedge 2 1 1e308\nedge 1 0 1\nedge 1 2 1\n"
    load_graph(text)  # each raw weight is finite; only node 1's sum overflows
    with pytest.raises(GraphFormatError, match="node 1 overflow") as exc_info:
        load_graph(text, normalize=True)
    assert exc_info.value.line == 3


def test_normalize_rejects_a_weight_that_underflows_to_zero():
    text = "nodes 3\nedge 0 1 5e-324\nedge 2 1 2\nedge 1 0 1\nedge 1 2 1\n"
    load_graph(text)  # the raw weight is positive; over its sum of 2 it rounds to 0
    with pytest.raises(GraphFormatError) as exc_info:
        load_graph(text, normalize=True)
    assert str(exc_info.value) == "line 2: edge (0, 1) has non-positive weight 0.0"
    assert exc_info.value.line == 2


def test_validate_flags_disconnected_components():
    # Two separate 2-cycles: stochastic but not strongly connected.
    text = "nodes 4\nedge 0 1 1.0\nedge 1 0 1.0\nedge 2 3 1.0\nedge 3 2 1.0\n"
    report = validate(load_graph(text))
    assert report.stochastic
    assert not report.strongly_connected
    assert [v for v, _ in report.offending_nodes] == [2, 3]
    assert all(math.isinf(d) for _, d in report.offending_nodes)


def test_validate_single_node_graph():
    report = validate(Graph(1, ()))
    assert report.strongly_connected
    assert not report.stochastic  # no incoming weight at the only node


@st.composite
def edge_lists(draw, max_nodes=10):
    """Graphs with any weights and any number of strong components, some with isolated nodes.

    A random ring through every node makes some of them strongly connected, and
    rescaling each node's incoming weights makes some of them stochastic.
    """
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    if n > 1 and draw(st.booleans()):
        ring = draw(st.permutations(range(n)))
        chosen += [(u, v) for u, v in zip(ring, ring[1:] + ring[:1]) if (u, v) not in chosen]
    weight = st.one_of(st.sampled_from([1.0, 0.5, 1.0 / 3.0]), st.floats(1e-3, 2.0))
    edges = [(u, v, draw(weight)) for u, v in chosen]
    if draw(st.booleans()):
        sums = {}
        for _, v, w in edges:
            sums[v] = sums.get(v, 0.0) + w
        edges = [(u, v, w / sums[v]) for u, v, w in edges]
    return Graph(n, tuple(edges))


@given(edge_lists())
@example(Graph(1, ()))
@example(Graph(4, ((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0))))
def test_validate_matches_adjacency_list_oracle(g):
    assert validate(g) == validate_oracle(g)
    assert validate(g, tol=0.1) == validate_oracle(g, tol=0.1)


@pytest.mark.parametrize(
    "node_count, edges, fragment",
    [
        (0, (), "at least one node"),
        (2, ((0, 2, 1.0),), "unknown node id"),
        (2, ((1, 1, 1.0),), "self-loop"),
        (2, ((0, 1, 0.0),), "non-positive weight"),
        (2, ((0, 1, 0.5), (0, 1, 0.5)), "duplicate edge"),
    ],
)
def test_graph_constructor_rejects_bad_input(node_count, edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        Graph(node_count, edges)


def test_dump_load_round_trip():
    g = random_graph(14, 3, seed=11)
    back = load_graph(dump_graph(g))
    assert back.node_count == g.node_count
    assert [(u, v) for u, v, _ in back.edges] == [(u, v) for u, v, _ in g.edges]
    for (_, _, w_original), (_, _, w_back) in zip(g.edges, back.edges):
        assert w_back == pytest.approx(w_original, abs=1e-12)
    assert validate(back).ok


# --- ring-with-petals construction ------------------------------------------


def _in_edges(g):
    incoming = {v: {} for v in range(g.node_count)}
    for u, v, w in g.edges:
        incoming[v][u] = w
    return incoming


def test_counterexample_2_1_structure_by_hand():
    # mu = 2*(1+1)+1 = 5 central nodes, two petals each: 15 nodes, 25 edges.
    g = build_counterexample(2, 1)
    assert g.node_count == 15
    assert len(g.edges) == 25
    incoming = _in_edges(g)
    mu = 5
    for i in range(mu):
        left, right = mu + 2 * i, mu + 2 * i + 1
        # Central node: fed by its ring predecessor and its right petal, half each.
        assert incoming[i] == {(i - 1) % mu: 0.5, right: 0.5}
        # Left petal: fed only by its central node.
        assert incoming[left] == {i: 1.0}
        # Right petal: fed by its central node and the left petal, half each.
        assert incoming[right] == {i: 0.5, left: 0.5}
    assert validate(g).ok


def test_counterexample_3_2_shape():
    g = build_counterexample(3, 2)
    assert g.node_count == 30  # mu = 10 central nodes plus 20 petals
    incoming = _in_edges(g)
    mu = 10
    for i in range(mu):
        ring_feeders = {(i - 1) % mu, (i - 2) % mu}
        assert set(incoming[i]) == ring_feeders | {mu + 2 * i + 1}
        assert all(w == pytest.approx(1.0 / 3.0) for w in incoming[i].values())
    assert validate(g).ok


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_counterexample_family_validates(m, b):
    g = build_counterexample(m, b)
    assert g.node_count == 3 * (m * (b + 1) + 1)
    report = validate(g)
    assert report.ok, report.offending_nodes


@pytest.mark.parametrize("m, b", [(1, 1), (0, 2), (2, 0), (3, -1)])
def test_counterexample_rejects_bad_parameters(m, b):
    with pytest.raises(ValueError):
        build_counterexample(m, b)


# --- random generator --------------------------------------------------------


def test_random_graph_degree_one_is_a_cycle():
    g = random_graph(5, 1, seed=7)
    out_counts = np.zeros(5, dtype=int)
    in_counts = np.zeros(5, dtype=int)
    for u, v, w in g.edges:
        out_counts[u] += 1
        in_counts[v] += 1
        assert w == 1.0
    assert list(out_counts) == [1] * 5
    assert list(in_counts) == [1] * 5
    assert validate(g).ok  # strong connectivity makes the cycle single


def test_random_graph_is_deterministic():
    assert random_graph(20, 3, seed=1).edges == random_graph(20, 3, seed=1).edges
    assert random_graph(20, 3, seed=1).edges != random_graph(20, 3, seed=2).edges


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (10, 3), (14, 3), (50, 4), (200, 4), (200, 199)])
def test_random_graph_matches_reference_generator(n, d):
    for seed in range(5):
        g = random_graph(n, d, seed=seed)
        assert g.edges == random_graph_edges_oracle(n, d, seed)
        assert all(type(u) is int and type(v) is int for u, v, _ in g.edges)


def test_random_graph_validates_and_respects_out_degree():
    g = random_graph(20, 3, seed=1)
    assert validate(g).ok
    out_counts = np.zeros(20, dtype=int)
    for u, _, _ in g.edges:
        out_counts[u] += 1
    assert set(out_counts) == {3}


@pytest.mark.parametrize("n, d", [(1, 1), (2, 0), (2, 2), (5, 5)])
def test_random_graph_rejects_bad_parameters(n, d):
    with pytest.raises(ValueError):
        random_graph(n, d, seed=0)
