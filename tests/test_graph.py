"""Edge-list parsing, validation, and the graph generators."""

from __future__ import annotations

import io
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netinfluence import graph
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

from oracles import (
    counterexample_edges_oracle,
    load_graph_oracle,
    random_graph_edges_oracle,
    validate_oracle,
)

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
    odd one: ids out of range (some beyond int64), not integers or written
    oddly (``1_0``, ``007``, ``+5``), tokens split by whitespace that only
    ``str.splitlines`` breaks lines at, weights that are zero, negative,
    ``nan``, ``inf``, unparsable or large enough for their sums to overflow,
    self-loops, repeated pairs, comments, blank lines, lines with the wrong
    tokens and bad headers.  Half of the documents list their edges sorted.
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
    # Whitespace that `str.splitlines` takes for a line break but a file does not.
    spaces = ["\t", "  ", "\x0c", "\x1c", "\x85", "\u2028"]
    if draw(st.booleans()):
        chosen.sort()
    for u, v in chosen:
        u, v = pick([(u, v)], [(u, u), chosen[0]])
        ids = [pick([str(x)], bad_ids + [f"00{x}", f"+{x}"]) for x in (u, v)]
        weight = pick(["1", "0.5", "0.25", "2.5", "1e308"], bad_weights)
        lines.append(pick([pick([" "], spaces).join(["edge", *ids, weight])], bad_lines))
    return "\n".join(lines) + "\n"


def _parse(parser, text, normalize):
    try:
        g = parser(text, normalize=normalize)
    except GraphFormatError as exc:
        return str(exc), exc.line
    return (g.node_count, g.edges) if isinstance(g, Graph) else g


# Documents that numpy's C line reader and str.split/int/float read differently,
# or that the reader must hand to the per-line tokenizer.
READER_EDGE_CASES = [
    "nodes 3\nedge 0 1 1\nedgeX 1 2 1\n",
    "nodes 3\nedge 0 1 1\nedgeXYZ 1 2 1\n",
    "nodes 3\nedge 0 1 1\nedge 1 2 1 # c\n",
    "nodes 2\nedge 0 1 1\n \t \nedge 1 0 1\nedge 0 1 1\n",
    "nodes 2\r\nedge 0 1 1\r\nedge 1 0 1\r\n",
    "nodes 2\nedge\u30000\u30001\u30001\nedge 1\xa00 1\n",
    "nodes 2\nedge 0 1 1_0.5\nedge 1 0 1\n",
    "nodes 4\nedge 0 \u0663 1\nedge 3 0 1\n",
    "nodes 3\nedge 0 1 1\nedge 9223372036854775808 1 1\n",
    "nodes 3\nedge 0 -9223372036854775809 1\nedge 1 2 1\n",
    "nodes 2\nedge\x00 0 1 1\nedge 1 0 1\n",
    "nodes 2\nedge 0 1 1\nedge 1 0 1\x00\n",
    "nodes 3\nedge 0 1\nedge 0 x 1\n",  # a malformed line wins over a later bad token
    "nodes 3\nedge 0 5 1\nedge 99999999999999999999 1 1\n",  # the first edge's ids as written
]


def _reader_edge_cases(test):
    for text in READER_EDGE_CASES:
        test = example(text=text, normalize=False)(test)
    return test


@settings(max_examples=300)
@given(edge_documents(), st.booleans())
@example("nodes 3\nedge 0 x 1\nedge 0 1\n", False)
@example("nodes 3\nedge 0 1 1e308\nedge 2 1 1e308\nedge 1 0 1\nedge 1 2 1\n", True)
@example("nodes 3\nedge 0 1 1e-320\nedge 2 1 1e308\nedge 1 0 1\n", True)
@example("nodes 4\nedge 1 3 1\nedge 0 1 1\nedge 1 3 1\n", False)
@_reader_edge_cases
def test_load_graph_matches_line_by_line_oracle(text, normalize):
    assert _parse(load_graph, text, normalize) == _parse(load_graph_oracle, text, normalize)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("kind", ["text", "file lines"])
@settings(max_examples=100)
@given(text=edge_documents(), normalize=st.booleans())
@example(text="nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 2 0 x\n", normalize=False)
@example(text="nodes 3\nedge 0 1 1\x0cedge 1 2 1\nedge 2 0 1\n", normalize=False)
@_reader_edge_cases
def test_load_graph_matches_oracle_across_chunk_boundaries(chunk, kind, text, normalize):
    # A file splits lines at "\n" only; a string splits at every line break.
    source = text if kind == "text" else list(io.StringIO(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_CHUNK_LINES", chunk)
        assert _parse(load_graph, source, normalize) == _parse(load_graph_oracle, source, normalize)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("nodes 3\nedge 0 1 1\nedge 0 1 1\nedge 1 2 1\n", 3, "duplicate edge (0, 1)"),
        ("nodes 3\nedge 1 2 1\nedge 0 1 1\nedge 1 2 1\n", 4, "duplicate edge (1, 2)"),
        ("nodes 3\nedge 0 1 1\nedge 0 2 1\nedge 1 0 1\nedge 0 2 1\n", 5, "duplicate edge (0, 2)"),
        ("nodes 3\nedge 0 1 1\nedge 2 1 1\nedge 1 0 1\nedge 1 2 1\nedge 2 1 1\n", 6,
         "duplicate edge (2, 1)"),
        ("nodes 3\nedge 00 +1 1\nedge 0 1_0 1\n", 3, "edge (0, 10) references an unknown node id"),
        ("nodes 3\nedge 0 1 1\nedge 99999999999999999999 -1 1\n", 3,
         "edge (99999999999999999999, -1) references an unknown node id"),
        ("nodes 3\nedge 0 -99999999999999999999 1\nedge 9 1 1\n", 2,
         "edge (0, -99999999999999999999) references an unknown node id"),
        ("nodes 3\nedge 0 1 1\nedge 0 1 1\nedge 0 9 x\n", 4, "bad edge tokens ['0', '9', 'x']"),
    ],
    ids=["sorted-duplicate", "unsorted-duplicate", "partly-sorted-duplicate", "sorted-then-not",
         "odd-ids", "beyond-int64", "below-int64", "bad-token-wins"],
)
@pytest.mark.parametrize("chunk", [1, 2, graph._CHUNK_LINES])
def test_load_graph_errors_name_the_first_bad_edge(monkeypatch, chunk, text, line, message):
    monkeypatch.setattr(graph, "_CHUNK_LINES", chunk)
    for source in (text, text.splitlines(), io.StringIO(text)):
        with pytest.raises(GraphFormatError) as exc_info:
            load_graph(source)
        assert (str(exc_info.value), exc_info.value.line) == (f"line {line}: {message}", line)


def test_load_graph_accepts_ids_written_with_zeros_and_signs():
    g = load_graph("nodes 11\nedge 007 +5 1\nedge 1_0 00 0.5\n")
    assert g.edges == ((7, 5, 1.0), (10, 0, 0.5))


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30), st.booleans())
def test_repeats_marks_every_later_copy_of_a_pair(pairs, sort):
    pairs = sorted(pairs) if sort else pairs
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    assert graph._repeats(src, dst).tolist() == [pair in pairs[:k] for k, pair in enumerate(pairs)]


def test_load_graph_holds_one_chunk_of_strings_at_a_time():
    g = random_graph(25_000, 4, seed=3)
    source = iter(list(io.StringIO(dump_graph(g))))  # made before tracing starts, as a file would hand them over
    array_bytes = g.src.nbytes + g.dst.nbytes + g.weight.nbytes
    tracemalloc.start()
    try:
        loaded = load_graph(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.src, g.src) and np.array_equal(loaded.dst, g.dst)
    # Holding every token as a string takes over ten times the arrays' bytes; a chunk at a time, about four.
    assert peak < 6 * array_bytes, f"peak {peak / array_bytes:.1f} times the arrays"


@pytest.mark.parametrize("spell", [repr, "{:#.12g}".format], ids=["repr", "12-digits"])
def test_load_graph_reads_clean_dumps_without_the_tokenizer(monkeypatch, spell):
    g = random_graph(10_000, 4, seed=5)
    assert g.src.size > 2 * graph._CHUNK_LINES
    weights = np.exp(np.random.default_rng(5).uniform(-740, 709, g.src.size)).tolist()  # subnormal to huge
    lines = ["nodes 10000\n"]
    lines += [f"edge {u} {v} {spell(w)}\n" for u, v, w in zip(g.src.tolist(), g.dst.tolist(), weights)]
    tokenizer = graph._chunk_columns

    def refuse(chunk, first, *rest):
        assert not chunk, f"lines from {first} on reached the per-line tokenizer"
        return tokenizer(chunk, first, *rest)

    monkeypatch.setattr(graph, "_chunk_columns", refuse)
    loaded = load_graph(lines)
    assert np.array_equal(loaded.src, g.src) and np.array_equal(loaded.dst, g.dst)
    assert loaded.weight.tobytes() == np.array([float(line.split()[3]) for line in lines[1:]]).tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, graph._CHUNK_LINES])
def test_load_graph_leaks_no_warning_on_blank_or_comment_chunks(monkeypatch, chunk):
    monkeypatch.setattr(graph, "_CHUNK_LINES", chunk)
    documents = [
        "nodes 2\n\n\n\n \t \nedge 0 1 1\n\n\n\n\nedge 1 0 1\n\n\n",
        "nodes 2\n# a\n# b\n#\nedge 0 1 1\n# c\n  # d\nedge 1 0 1\n# e\n",
        "nodes 2\n\n\n\n",
        "nodes 2\n# a\n# b\n# c\n",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in documents:
            source = list(io.StringIO(text))
            assert _parse(load_graph, source, False) == _parse(load_graph_oracle, source, False)


EXACT = ((0, 1, 0.5), (0, 2, 1.0), (1, 0, 1.0), (2, 1, 0.5))


def test_equal_graphs_hash_equal_however_built():
    built = Graph(3, EXACT)
    parsed = load_graph("nodes 3\n" + "".join(f"edge {u} {v} {w}\n" for u, v, w in EXACT))
    round_trip = load_graph(dump_graph(built))
    for other in (parsed, round_trip, pickle.loads(pickle.dumps(built))):
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


# --- the edge view -------------------------------------------------------------


def test_edge_view_equals_any_sequence_of_the_same_triples_both_ways():
    edges = Graph(3, EXACT).edges
    for same in (EXACT, list(EXACT), Graph(3, EXACT).edges, Graph(4, EXACT).edges):
        assert edges == same and same == edges
        assert not (edges != same) and not (same != edges)
    heavier = EXACT[:3] + ((2, 1, 0.75),)
    for other in (heavier, Graph(3, heavier).edges, EXACT[:3], EXACT[::-1], (), EXACT + ((2, 0, 1.0),)):
        assert edges != other and other != edges
        assert not (edges == other) and not (other == edges)
    assert edges != 4 and edges != {(0, 1, 0.5)}


def test_edge_view_indexes_and_slices_like_the_tuple():
    edges = Graph(3, EXACT).edges
    assert len(edges) == 4
    for k in range(-4, 4):
        assert edges[k] == EXACT[k] and type(edges[k]) is tuple
    assert edges[np.int64(1)] == EXACT[1]
    for index in (4, -5):
        with pytest.raises(IndexError):
            edges[index]
    with pytest.raises(TypeError):
        edges[1.0]
    for cut in (slice(1, 3), slice(None, None, -1), slice(5, 9), slice(-2, None), slice(None, None, 2)):
        assert edges[cut] == EXACT[cut] and type(edges[cut]) is tuple
    assert (0, 2, 1.0) in edges and edges.index((1, 0, 1.0)) == 2 and list(reversed(edges)) == list(EXACT[::-1])


def test_edge_view_yields_python_ints_and_floats():
    g = random_graph(40, 3, seed=4)
    seen = 0
    for u, v, w in g.edges:
        assert type(u) is int and type(v) is int and type(w) is float
        assert (u, v, w) == (g.src[seen], g.dst[seen], g.weight[seen])
        seen += 1
    assert seen == len(g.edges) == g.src.size
    u, v, w = g.edges[-1]
    assert (type(u), type(v), type(w)) == (int, int, float)


def test_edge_view_iterates_across_block_boundaries(monkeypatch):
    g = random_graph(30, 3, seed=6)
    expected = tuple(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()))
    for block in (1, 7, 90, graph._CHUNK_LINES):
        monkeypatch.setattr(graph, "_CHUNK_LINES", block)
        assert tuple(g.edges) == expected and g.edges == expected


def test_edge_view_array_matches_the_tuples_array():
    g = random_graph(50, 4, seed=8)
    expected = np.asarray(tuple(g.edges), dtype=float)
    got = np.asarray(g.edges, dtype=float)
    assert got.shape == (200, 3) and got.dtype == np.float64 and np.array_equal(got, expected)
    assert np.array_equal(np.asarray(g.edges), expected)
    assert np.array_equal(np.asarray(g.edges, dtype=np.int64), np.asarray(tuple(g.edges), dtype=np.int64))
    with pytest.raises(ValueError):
        np.asarray(g.edges, copy=False)


def test_graph_repr_and_pickle_are_unchanged():
    g = Graph(3, EXACT)
    assert repr(g) == (
        "Graph(node_count=3, edges=((0, 1, 0.5), (0, 2, 1.0), (1, 0, 1.0), (2, 1, 0.5)))"
    )
    assert repr(g.edges) == repr(EXACT) and str(g.edges) == str(EXACT)
    rebuild, args = g.__reduce__()
    assert rebuild is Graph and args == (3, EXACT)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(g, protocol))
        assert back == g and back.edges == EXACT and repr(back) == repr(g)
        edges = pickle.loads(pickle.dumps(g.edges, protocol))
        assert type(edges) is tuple and edges == EXACT


def test_edge_view_memory_stays_near_a_block(traced_peak):
    g = random_graph(20_000, 4, seed=2)
    assert len(g.edges) == 80_000
    # The triples as a tuple take about 13 MB.
    assert traced_peak(lambda: len(g.edges)) < 64  # the returned int, at most
    assert traced_peak(lambda: np.asarray(g.edges)) < 2 * (24 * g.src.size)
    # Measured: 1.8 MB for the three columns of one block as Python lists.
    assert traced_peak(lambda: sum(1 for _ in g.edges)) < 150 * graph._CHUNK_LINES


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


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_validate_rejects_a_tolerance_not_positive_and_finite(tol):
    # Before, nan passed a 3-cycle whose node 0 has in-weight 0.5 as stochastic.
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5)))
    with pytest.raises(ValueError, match=r"^tol must be positive and finite, got"):
        validate(g, tol=tol)


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


def _unit_in_weights(n, src, dst):
    """``Graph`` on the edges ``src[k] -> dst[k]``, each weighted one over its target's in-degree."""
    src, dst = np.asarray(src), np.asarray(dst)
    weight = 1.0 / np.bincount(dst, minlength=n)[dst]
    return Graph(n, zip(src.tolist(), dst.tolist(), weight.tolist()))


def _path(first, last):
    return np.arange(first, last - 1), np.arange(first + 1, last)


def _cluster(first, last, seed):
    """Random edges among ``first .. last - 1`` through a ring, three out-edges per node."""
    nodes = np.arange(first, last)
    ring = np.random.default_rng(seed).permutation(nodes)
    extra = np.random.default_rng(seed + 1).choice(nodes, size=(nodes.size, 2))
    pairs = {(u, v) for u, v in zip(ring, np.roll(ring, -1))} | {
        (u, v) for u, row in zip(nodes.tolist(), extra.tolist()) for v in row if u != v
    }
    src, dst = zip(*sorted(pairs))
    return np.array(src), np.array(dst)


def _ladder(width, length):
    """``length`` rungs of ``width`` nodes, each wired to its neighbour and the next rung."""
    grid = np.arange(width * length).reshape(length, width)
    src = [grid[:, :-1].ravel(), grid[:, 1:].ravel(), grid[:-1].ravel()]
    dst = [grid[:, 1:].ravel(), grid[:, :-1].ravel(), grid[1:].ravel()]
    return np.concatenate(src), np.concatenate(dst)


def _shapes():
    """``(name, n, src, dst)`` of graphs whose searches run far past a few frontier rounds."""
    for n in (50, 300, 2000):
        src, dst = _path(0, n)
        yield f"path-{n}", n, src, dst
        yield f"ring-{n}", n, np.append(src, n - 1), np.append(dst, 0)
    for width in (2, 3, 10, 100):
        length = max(2, 1000 // width)
        src, dst = _ladder(width, length)
        last = width * length - 1
        yield f"ladder-{width}", last + 1, src, dst
        yield f"ladder-{width}-closed", last + 1, np.append(src, last), np.append(dst, 0)
    path_src, path_dst = _path(0, 600)
    blob_src, blob_dst = _cluster(599, 1500, seed=5)
    yield "path-into-cluster", 1500, np.concatenate([path_src, blob_src]), np.concatenate([path_dst, blob_dst])
    blob_src, blob_dst = _cluster(0, 900, seed=6)
    path_src, path_dst = _path(899, 1500)
    src, dst = np.concatenate([blob_src, path_src]), np.concatenate([blob_dst, path_dst])
    yield "cluster-into-path", 1500, src, dst
    yield "cluster-into-path-and-back", 1500, np.append(src, 1499), np.append(dst, 0)
    # A long ring with a tail that leaves it, a tail that enters it and an island.
    ring_src, ring_dst = _path(0, 1000)
    out_src, out_dst = _path(1000, 1100)
    src = np.concatenate([ring_src, [999, 500], out_src, np.arange(1101, 1150), [1149, 1150], [1151]])
    dst = np.concatenate([ring_dst, [0, 1000], out_dst, np.arange(1102, 1151), [700, 1151], [1150]])
    yield "ring-with-tails-and-island", 1152, src, dst


@pytest.mark.parametrize("levels", [0, 3, graph._FRONTIER_LEVELS])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("shape", list(_shapes()), ids=lambda shape: shape[0])
def test_validate_matches_oracle_on_long_searches(monkeypatch, shape, reverse, levels):
    # Few frontier rounds hand over to the stack walk early, and long paths hand over at any setting.
    monkeypatch.setattr(graph, "_FRONTIER_LEVELS", levels)
    monkeypatch.setattr(graph, "_FRONTIER_MIN_NODES", 1)
    _, n, src, dst = shape
    g = _unit_in_weights(n, *((dst, src) if reverse else (src, dst)))
    assert validate(g) == validate_oracle(g)


@pytest.mark.parametrize(
    "node_count, edges, fragment",
    [
        (0, (), "at least one node"),
        (2, ((0, 2, 1.0),), "unknown node id"),
        (2, ((1, 1, 1.0),), "self-loop"),
        (2, ((0, 1, 0.0),), "non-positive weight"),
        (2, ((0, 1, 0.5), (0, 1, 0.5)), "duplicate edge"),
        (2, ((0.7, 1, 1.0), (1, 0, 1.0)), r"^edge \(0\.7, 1\) has a non-integer node id$"),
        (2, ((0, 1, 1.0), (1, 0.2, 1.0)), r"^edge \(1, 0\.2\) has a non-integer node id$"),
        (2, (("0", 1, 1.0), (1, 0, 1.0)), r"^edge \('0', 1\) has a non-integer node id$"),
        (2, ((0, 1, 1.0), (1, np.float64(0.0), 1.0)), r"^edge \(1, .*0\.0\)?\) has a non-integer node id$"),
        (2, ((0, 2**70, 1.0), (1, 0, 1.0), (1.0, 0, 1.0)), r"^edge \(1\.0, 0\) has a non-integer node id$"),
    ],
)
def test_graph_constructor_rejects_bad_input(node_count, edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        Graph(node_count, edges)


def test_graph_constructor_takes_numpy_integer_ids():
    numpy_ints = Graph(2, [(np.int64(0), np.int32(1), 1.0), (np.uint8(1), 0, 1.0)])
    assert numpy_ints == Graph(2, [(0, 1, 1.0), (1, 0, 1.0)])


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


@pytest.mark.parametrize("m, b", [(m, b) for m in range(2, 5) for b in range(1, 4)])
def test_counterexample_matches_edge_tuple_generator(m, b):
    g = build_counterexample(m, b)
    assert g == Graph(*counterexample_edges_oracle(m, b))
    assert g.src.dtype == g.dst.dtype == np.int64


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
        assert g == Graph(n, random_graph_edges_oracle(n, d, seed))
        assert g.src.dtype == g.dst.dtype == np.int64


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
