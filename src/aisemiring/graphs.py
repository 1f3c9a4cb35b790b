"""The graph attached to a term's two-letter summands.

Vertices are the variables of the length-2 summands, with one undirected
edge per summand (xy and yx give the same edge, xx gives a loop). The key
construction is a bipartition forced to keep a given vertex set on one
side, which exists exactly when the graph has no odd cycle and no two of
the given vertices are joined by an odd-length path.

Every question here is answered from one breadth-first search, ``_bfs``,
and its visit order, depths and parents: a component holds an odd cycle
exactly when some edge joins two vertices of the same depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Term, Variable, content, level


@dataclass(frozen=True)
class TermGraph:
    vertices: frozenset[Variable]
    #: sorted pairs; a loop appears as (x, x)
    edges: frozenset[tuple[Variable, Variable]]

    def adjacency(self) -> dict[Variable, list[Variable]]:
        adj: dict[Variable, set[Variable]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: sorted(adj[v]) for v in self.vertices}

    def has_loop(self) -> bool:
        return any(a == b for a, b in self.edges)


class OddCycleError(ValueError):
    """Graph contains an odd cycle; ``cycle`` lists its vertices in order."""

    def __init__(self, cycle: tuple[Variable, ...]):
        self.cycle = cycle
        super().__init__(f"odd cycle of length {len(cycle)}: {' - '.join(cycle)}")


class OddPathError(ValueError):
    """Two constrained vertices joined by an odd-length path."""

    def __init__(self, pair: tuple[Variable, Variable], path: tuple[Variable, ...]):
        self.pair = pair
        self.path = path
        super().__init__(
            f"vertices {pair[0]} and {pair[1]} are joined by an odd path "
            f"of length {len(path) - 1}"
        )


def graph_of(u: Term) -> TermGraph:
    """Graph on the variables of u's length-2 summands, one edge each."""
    two = level(2, u)
    vertices = frozenset(x for w in two for x in w.letters)
    edges = frozenset(tuple(sorted(w.letters)) for w in two)
    return TermGraph(vertices, edges)


def make_graph(edges, vertices=()) -> TermGraph:
    """Graph from edge pairs plus optional isolated vertices."""
    es = frozenset(tuple(sorted((a, b))) for a, b in edges)
    vs = frozenset(vertices) | frozenset(x for e in es for x in e)
    return TermGraph(vs, es)


def _bfs(adj: dict[Variable, list[Variable]], root: Variable):
    """Breadth-first search from root over sorted adjacency lists: the
    visit order, the depth of each reached vertex and its parent in the
    search tree (None for the root)."""
    order = [root]
    depth = {root: 0}
    parent: dict[Variable, Variable | None] = {root: None}
    for x in order:  # order grows while it is read: it is the queue
        for y in adj[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                parent[y] = x
                order.append(y)
    return order, depth, parent


def _same_depth_edge(adj, order, depth) -> tuple[Variable, Variable] | None:
    """The first edge, in visit order, whose ends have the same depth; a
    component has one exactly when it holds an odd cycle."""
    for x in order:
        for y in adj[x]:
            if depth[y] == depth[x]:
                return x, y
    return None


def find_odd_cycle(G: TermGraph) -> list[Variable] | None:
    """Some odd cycle as a vertex list (consecutive pairs and the wrap-around
    pair are edges), or None when the graph is bipartite."""
    for a, b in sorted(G.edges):
        if a == b:
            return [a]
    adj = G.adjacency()
    seen: set[Variable] = set()
    for start in sorted(G.vertices):
        if start in seen:
            continue
        order, depth, parent = _bfs(adj, start)
        seen.update(order)
        edge = _same_depth_edge(adj, order, depth)
        if edge is not None:
            return _tree_cycle(parent, *edge)
    return None


def _tree_cycle(parent, x, y) -> list[Variable]:
    # x and y have the same depth (an edge from _same_depth_edge), so walking
    # both up in step meets at their lowest common ancestor; the two tree
    # paths plus the conflict edge form a simple odd cycle
    px, py = [x], [y]
    while px[-1] != py[-1]:
        px.append(parent[px[-1]])
        py.append(parent[py[-1]])
    return px + py[-2::-1]


def is_bipartite(G: TermGraph) -> bool:
    return find_odd_cycle(G) is None


def odd_path_exists(G: TermGraph, x: Variable, y: Variable) -> bool:
    """Whether some odd-length walk connects x and y.

    Walk parity equals path parity in bipartite graphs; in a component with
    an odd cycle every pair is connected by walks of both parities, so this
    matches the path reading wherever the bipartition machinery uses it.
    """
    if x == y:
        raise ValueError("endpoints must be distinct")
    if x not in G.vertices or y not in G.vertices:
        missing = x if x not in G.vertices else y
        raise ValueError(f"vertex {missing!r} not in graph")
    adj = G.adjacency()
    order, depth, _ = _bfs(adj, x)
    if y not in depth:
        return False
    return depth[y] % 2 == 1 or _same_depth_edge(adj, order, depth) is not None


def constrained_bipartition(
    G: TermGraph, H: frozenset[Variable] | set[Variable]
) -> tuple[frozenset[Variable], frozenset[Variable]]:
    """Bipartition (Y, Z) of G with H inside Y.

    Per component the side Y collects the vertices at even distance from a
    representative, chosen inside H when the component meets H (least vertex
    wins either way). Raises OddCycleError when G is not bipartite and
    OddPathError when two H-vertices sit at odd distance.
    """
    H = frozenset(H)
    stray = H - G.vertices
    if stray:
        raise ValueError(f"constrained vertices not in graph: {sorted(stray)}")
    cycle = find_odd_cycle(G)
    if cycle is not None:
        raise OddCycleError(tuple(cycle))

    adj = G.adjacency()
    Y: set[Variable] = set()
    Z: set[Variable] = set()
    for start in sorted(G.vertices):
        if start in Y or start in Z:
            continue
        # start is the least vertex of its component
        order, depth, parent = _bfs(adj, start)
        h_in = sorted(H.intersection(order))
        rep = h_in[0] if h_in else start
        if rep != start:
            order, depth, parent = _bfs(adj, rep)
        for h in h_in:
            if depth[h] % 2 == 1:
                path = [h]
                while path[-1] != rep:
                    path.append(parent[path[-1]])
                raise OddPathError((rep, h), tuple(reversed(path)))
        for v in order:
            (Y if depth[v] % 2 == 0 else Z).add(v)
    return frozenset(Y), frozenset(Z)
