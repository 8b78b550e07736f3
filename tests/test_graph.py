"""Digraph construction, weight matrices, and file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_admm import (Disconnected, InvalidEdge, build_digraph,
                            diameter, is_strongly_connected, load_digraph,
                            random_strongly_connected, ratio_weights,
                            save_digraph)
from consensus_admm import graph


def test_build_digraph_adjacency():
    g = build_digraph(3, [(1, 0), (2, 1), (0, 2)])
    assert g.n == 3
    assert g.out_neighbors == ((1,), (2,), (0,))
    assert g.in_neighbors == ((2,), (0,), (1,))
    assert g.edge_count == 3
    assert g.out_degree(0) == 1
    assert g.edges() == [(1, 0), (2, 1), (0, 2)]


def test_build_digraph_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        build_digraph(2, [(0, 0)])


def test_build_digraph_rejects_duplicate():
    with pytest.raises(InvalidEdge):
        build_digraph(2, [(1, 0), (1, 0)])


def test_build_digraph_rejects_out_of_range():
    with pytest.raises(InvalidEdge):
        build_digraph(2, [(2, 0)])
    with pytest.raises(InvalidEdge):
        build_digraph(0, [])


@pytest.mark.parametrize("n", [True, False, 2.0, 3.5, "3", None, -1])
def test_build_digraph_rejects_a_node_count_that_is_not_a_positive_int(n):
    # True once built a 1-node graph, and 2.0 escaped as a raw TypeError
    with pytest.raises(InvalidEdge, match="node count must be an integer"):
        build_digraph(n, [])
    assert build_digraph(np.int64(2), [(1, 0), (0, 1)]).n == 2


def test_strong_connectivity():
    cycle = build_digraph(4, [(1, 0), (2, 1), (3, 2), (0, 3)])
    assert is_strongly_connected(cycle)
    chain = build_digraph(3, [(1, 0), (2, 1)])
    assert not is_strongly_connected(chain)
    assert is_strongly_connected(build_digraph(1, []))


def test_random_digraph_is_deterministic():
    a = random_strongly_connected(7, extra_edge_prob=0.3, seed=11)
    b = random_strongly_connected(7, extra_edge_prob=0.3, seed=11)
    assert a.out_neighbors == b.out_neighbors
    c = random_strongly_connected(7, extra_edge_prob=0.3, seed=12)
    assert a.out_neighbors != c.out_neighbors


@pytest.mark.parametrize("n", [2.0, 2.5, "3", 0, -1, True])
def test_random_digraph_refuses_a_node_count_before_drawing(n):
    # 2.0, 2.5 and "3" escaped as numpy's AxisError from rng.permutation
    with pytest.raises(InvalidEdge, match="node count must be an integer"):
        random_strongly_connected(n, 0.3, seed=1)


def test_random_digraph_refuses_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        random_strongly_connected(4, 0.3, seed=-1)


@pytest.mark.parametrize("prob", [float("nan"), -0.1, 1.5, float("inf")])
def test_random_digraph_refuses_a_bad_edge_probability(prob):
    with pytest.raises(ValueError, match="extra_edge_prob"):
        random_strongly_connected(4, prob, seed=1)


def test_random_digraph_edge_probability_bounds():
    n = 5
    assert random_strongly_connected(n, 0.0, seed=2).edge_count == n
    assert random_strongly_connected(n, 1.0, seed=2).edge_count == n * (n - 1)


def _double_loop_digraph(n, extra_edge_prob, seed):
    """Reference builder: the cycle, then every ordered pair in turn."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edge_set = set()
    if n > 1:
        for i in range(n):
            edge_set.add((int(order[(i + 1) % n]), int(order[i])))
    if extra_edge_prob > 0.0 and n > 1:
        draws = rng.random((n, n))
        for sender in range(n):
            for receiver in range(n):
                if receiver == sender or (receiver, sender) in edge_set:
                    continue
                if draws[sender, receiver] < extra_edge_prob:
                    edge_set.add((receiver, sender))
    return build_digraph(n, sorted(edge_set, key=lambda e: (e[1], e[0])))


@pytest.mark.parametrize("draw_chunk", [None, 50])
def test_random_digraph_equals_the_double_loop(monkeypatch, draw_chunk):
    # with draw_chunk=50 the draws come one or two rows at a time
    if draw_chunk is not None:
        monkeypatch.setattr(graph, "_DRAW_CHUNK", draw_chunk)
    for n in (1, 2, 3, 5, 17, 64, 300):
        for prob in (0.0, 0.05, 0.3, 1.0):
            for seed in (0, 1, 7):
                g = random_strongly_connected(n, prob, seed=seed)
                ref = _double_loop_digraph(n, prob, seed)
                assert g.edges() == ref.edges(), (n, prob, seed)
                assert g == ref


def test_random_digraph_zero_extra_is_a_cycle():
    for n in (2, 5, 13):
        g = random_strongly_connected(n, extra_edge_prob=0.0, seed=3)
        assert g.edge_count == n
        assert all(g.out_degree(j) == 1 for j in range(n))
        assert is_strongly_connected(g)


@given(n=st.integers(2, 20), prob=st.sampled_from([0.0, 0.1, 0.4]),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_digraph_always_strongly_connected(n, prob, seed):
    g = random_strongly_connected(n, extra_edge_prob=prob, seed=seed)
    assert g.n == n
    assert is_strongly_connected(g)


def test_ratio_weights_structure():
    g = build_digraph(3, [(1, 0), (2, 1), (0, 2), (2, 0)])
    w = ratio_weights(g)
    assert np.allclose(w.sum(axis=0), 1.0)
    # column j: 1/(1 + d_out(j)) on the diagonal and on each out-neighbour
    assert w[0, 0] == pytest.approx(1 / 3)
    assert w[1, 0] == pytest.approx(1 / 3)
    assert w[2, 0] == pytest.approx(1 / 3)
    assert w[1, 1] == pytest.approx(1 / 2)
    assert w[0, 1] == 0.0


@given(n=st.integers(2, 12), seed=st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_weights_preserve_total_mass(n, seed):
    g = random_strongly_connected(n, extra_edge_prob=0.2, seed=seed)
    w = ratio_weights(g)
    v = np.random.default_rng(seed).normal(size=n)
    total = v.sum()
    for _ in range(5):
        v = w @ v
        assert np.isclose(v.sum(), total, atol=1e-10)


def test_diameter():
    cycle = build_digraph(4, [(1, 0), (2, 1), (3, 2), (0, 3)])
    assert diameter(cycle) == 3
    complete = build_digraph(
        3, [(r, s) for s in range(3) for r in range(3) if r != s])
    assert diameter(complete) == 1
    chain = build_digraph(3, [(1, 0), (2, 1)])
    with pytest.raises(Disconnected):
        diameter(chain)


def test_save_load_round_trip(tmp_path):
    g = random_strongly_connected(9, extra_edge_prob=0.25, seed=4)
    path = tmp_path / "graph.txt"
    save_digraph(g, path)
    h = load_digraph(path)
    assert h.n == g.n
    assert h.out_neighbors == g.out_neighbors


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n")
    with pytest.raises(InvalidEdge):
        load_digraph(path)
    path.write_text("3 2\n0 1\n")
    with pytest.raises(InvalidEdge):
        load_digraph(path)


@pytest.mark.parametrize("text", ["3 x\n", "3 1\n0 1.5\n", "n 1\n0 1\n"])
def test_load_rejects_non_integer_tokens(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidEdge, match="bad.txt"):
        load_digraph(path)
