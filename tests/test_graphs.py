import random

import pytest

from aisemiring.family import make_family
from aisemiring.graphs import (
    OddCycleError,
    OddPathError,
    constrained_bipartition,
    find_odd_cycle,
    graph_of,
    is_bipartite,
    make_graph,
    odd_path_exists,
)
from aisemiring.terms import parse_term

t = parse_term


class TestGraphOf:
    def test_family_instance_one(self):
        g = graph_of(make_family(1).u)
        assert g.vertices == {"x1", "x2", "x3", "y1", "y2"}
        assert g.edges == {
            ("x1", "x2"),
            ("x2", "x3"),
            ("x1", "x3"),
            ("y1", "y2"),
        }

    def test_no_level_two_summands(self):
        g = graph_of(t("x"))
        assert g.vertices == frozenset() and g.edges == frozenset()

    def test_unordered_collapse(self):
        g = graph_of(t("xy + yx"))
        assert g.edges == {("x", "y")}

    def test_loop_from_square(self):
        g = graph_of(t("xx"))
        assert g.edges == {("x", "x")}
        assert g.has_loop()


class TestOddCycles:
    def test_triangle(self):
        g = make_graph([("x1", "x2"), ("x2", "x3"), ("x3", "x1")])
        cycle = find_odd_cycle(g)
        assert cycle is not None and len(cycle) == 3
        assert not is_bipartite(g)

    def test_even_path(self):
        assert is_bipartite(make_graph([("a", "b"), ("b", "c")]))

    def test_empty_graph(self):
        assert is_bipartite(make_graph([]))

    def test_loop_is_an_odd_cycle(self):
        g = make_graph([("x", "x")])
        assert find_odd_cycle(g) == ["x"]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_family_cycle_length(self, n):
        cycle = find_odd_cycle(graph_of(make_family(n).u))
        assert cycle is not None
        assert len(cycle) == 2 * n + 1
        # consecutive pairs, including the wrap-around, are edges
        g = graph_of(make_family(n).u)
        for i in range(len(cycle)):
            pair = tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
            assert pair in g.edges

    def test_first_same_depth_edge_in_visit_order_wins(self):
        # from a, (y, z) is met before (c, d) in visit order, though (c, d)
        # sorts first among the edges
        g = make_graph([("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"),
                        ("a", "y"), ("a", "z"), ("y", "z")])
        assert find_odd_cycle(g) == ["y", "a", "z"]

    def test_cycle_from_the_component_of_the_least_vertex(self):
        g = make_graph([("p", "q"), ("q", "r"), ("p", "r"),
                        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
        assert find_odd_cycle(g) == ["c", "b", "a", "e", "d"]

    def test_bipartite_iff_no_odd_cycle(self):
        rng = random.Random(11)
        for _ in range(200):
            nv = rng.randint(1, 8)
            verts = [f"v{i}" for i in range(nv)]
            edges = [
                (a, b)
                for i, a in enumerate(verts)
                for b in verts[i + 1:]
                if rng.random() < 0.3
            ]
            g = make_graph(edges, verts)
            assert is_bipartite(g) == (find_odd_cycle(g) is None)


class TestOddPaths:
    def test_single_edge(self):
        g = make_graph([("a", "b")])
        assert odd_path_exists(g, "a", "b")

    def test_even_distance_in_bipartite(self):
        g = make_graph([("a", "b"), ("b", "c")])
        assert not odd_path_exists(g, "a", "c")

    def test_triangle_has_both_parities(self):
        g = make_graph([("a", "b"), ("b", "c"), ("a", "c")])
        for x, y in [("a", "b"), ("b", "c"), ("a", "c")]:
            assert odd_path_exists(g, x, y)

    def test_odd_cycle_away_from_both_endpoints(self):
        # a and c sit at even distance; the triangle d-e-f hangs off the path
        g = make_graph([("a", "b"), ("b", "c"), ("c", "d"),
                        ("d", "e"), ("e", "f"), ("d", "f")])
        assert odd_path_exists(g, "a", "c")
        assert not odd_path_exists(make_graph([("a", "b"), ("b", "c"), ("c", "d")]),
                                   "a", "c")

    def test_disconnected_vertices(self):
        g = make_graph([("a", "b")], vertices=["c"])
        assert not odd_path_exists(g, "a", "c")

    def test_rejects_bad_endpoints(self):
        g = make_graph([("a", "b")])
        with pytest.raises(ValueError):
            odd_path_exists(g, "a", "a")
        with pytest.raises(ValueError):
            odd_path_exists(g, "a", "z")


class TestConstrainedBipartition:
    def test_even_path_with_endpoints(self):
        g = make_graph([("a", "b"), ("b", "c")])
        Y, Z = constrained_bipartition(g, {"a", "c"})
        assert {"a", "c"} <= Y
        assert Z == {"b"}

    def test_adjacent_constraints_rejected(self):
        g = make_graph([("a", "b")])
        with pytest.raises(OddPathError) as info:
            constrained_bipartition(g, {"a", "b"})
        assert set(info.value.pair) == {"a", "b"}
        assert len(info.value.path) % 2 == 0  # odd number of edges

    def test_triangle_rejected_even_without_constraints(self):
        g = make_graph([("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(OddCycleError) as info:
            constrained_bipartition(g, set())
        assert len(info.value.cycle) == 3

    def test_stray_constraint_vertices(self):
        g = make_graph([("a", "b")])
        with pytest.raises(ValueError, match="not in graph"):
            constrained_bipartition(g, {"q"})

    def test_empty_constraints_pick_least_vertices(self):
        g = make_graph([("b", "c"), ("d", "e")])
        Y, Z = constrained_bipartition(g, set())
        assert {"b", "d"} <= Y  # least vertex of each component lands in Y

    def test_root_is_the_least_vertex_of_h_not_of_the_component(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        Y, Z = constrained_bipartition(g, {"b", "d"})
        assert Y == {"b", "d"} and Z == {"a", "c", "e"}
        with pytest.raises(OddPathError) as info:
            constrained_bipartition(g, {"e", "b"})
        assert info.value.pair == ("b", "e")
        assert info.value.path == ("b", "c", "d", "e")

    def test_random_bipartite_instances(self):
        rng = random.Random(23)
        for _ in range(300):
            left = [f"a{i}" for i in range(rng.randint(1, 5))]
            right = [f"b{i}" for i in range(rng.randint(1, 5))]
            edges = [(a, b) for a in left for b in right if rng.random() < 0.4]
            H = frozenset(v for v in left if rng.random() < 0.5)
            g = make_graph(edges, left + right)
            Y, Z = constrained_bipartition(g, H)
            assert H <= Y
            assert Y | Z == g.vertices and not (Y & Z)
            for a, b in g.edges:
                assert (a in Y) != (b in Y)
