"""Directed multigraphs realizing nonnegative integer matrices.

A square matrix M with entries in the nonnegative integers is realized as a
multigraph with M[i][j] parallel edges from vertex i+1 to vertex j+1.  Edges
carry a stable identity (source, range, multiplicity index) so that gluing
specifications serialize deterministically.

This module also houses the matrix-level structure tests used throughout:
essentiality (no zero row or column), irreducibility (strong connectivity of
the support digraph) and condition (I) (every cycle has an exit).
"""

from collections import deque
from dataclasses import dataclass, field

from .errors import InputError
from .matrices import IntMatrix


@dataclass(frozen=True)
class Edge:
    """One directed edge; ``index`` runs 1..multiplicity within (source, range)."""

    tag: str
    source: int
    range: int
    index: int

    @property
    def key(self):
        """Identifier used in serialized form: (source, range, index)."""
        return (self.source, self.range, self.index)

    def __repr__(self):
        return f"{self.tag}({self.source},{self.range})#{self.index}"


@dataclass(frozen=True)
class DirectedMultigraph:
    """Immutable multigraph on vertices 1..vertex_count with canonically ordered edges."""

    vertex_count: int
    edges: tuple
    label: str
    _position: dict = field(init=False, repr=False, compare=False)
    _by_key: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_position", {e: i for i, e in enumerate(self.edges)})
        object.__setattr__(self, "_by_key", {e.key: e for e in self.edges})

    def position(self, edge):
        """Ordinal of ``edge`` in the canonical (source, range, index) order."""
        return self._position[edge]

    def edge_by_key(self, key):
        """The edge with identifier (source, range, index)."""
        edge = self._by_key.get(tuple(key))
        if edge is None:
            raise InputError(f"no edge {tuple(key)} in graph {self.label!r}")
        return edge

    def to_matrix(self):
        """Recount edge multiplicities back into a matrix of ints."""
        n = self.vertex_count
        m = [[0] * n for _ in range(n)]
        for e in self.edges:
            m[e.source - 1][e.range - 1] += 1
        return m


def _square_rows(matrix, require_nonnegative=True):
    """Accept an IntMatrix or nested sequences; return validated row lists."""
    rows = matrix.to_lists() if isinstance(matrix, IntMatrix) else [list(r) for r in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError("matrix must be square")
        for x in row:
            if not isinstance(x, int):
                raise InputError(f"matrix entries must be ints, got {x!r}")
            if require_nonnegative and x < 0:
                raise InputError(f"matrix entries must be nonnegative, got {x}")
    return rows


def graph_from_matrix(matrix, tag):
    """Realize a square nonnegative integer matrix as a directed multigraph.

    Entry (i, j) of the matrix becomes that many parallel edges from vertex
    i+1 to vertex j+1, enumerated deterministically.
    """
    rows = _square_rows(matrix)
    n = len(rows)
    edges = []
    for i in range(n):
        for j in range(n):
            for k in range(1, rows[i][j] + 1):
                edges.append(Edge(tag=tag, source=i + 1, range=j + 1, index=k))
    return DirectedMultigraph(vertex_count=n, edges=tuple(edges), label=tag)


def is_essential(matrix):
    """True iff every row sum and every column sum is positive."""
    rows = _square_rows(matrix)
    n = len(rows)
    for i in range(n):
        if not any(rows[i]):
            return False
    for j in range(n):
        if not any(rows[i][j] for i in range(n)):
            return False
    return True


def _support_successors(rows):
    return [[j for j, x in enumerate(row) if x] for row in rows]


def unreachable_pair(matrix):
    """A witness (p, q) of 0-based vertices with no path from p to q, or None.

    None means the matrix is irreducible.  Two breadth-first searches from
    vertex 0, along the edges and against them, find the first vertex q
    that 0 cannot reach, giving (0, q), or else the first that cannot reach
    0, giving (q, 0).  When both reach everything the digraph is strongly
    connected, which is irreducibility except for a loopless single vertex;
    its witness is (0, 0).
    """
    rows = _square_rows(matrix)
    n = len(rows)
    if n == 0:
        raise InputError("reachability needs at least one vertex")
    succ = _support_successors(rows)
    pred = [[i for i in range(n) if rows[i][j]] for j in range(n)]
    for adjacency, forward in ((succ, True), (pred, False)):
        seen = {0}
        frontier = deque([0])
        while frontier:
            for w in adjacency[frontier.popleft()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        for q in range(n):
            if q not in seen:
                return (0, q) if forward else (q, 0)
    return None if n > 1 or rows[0][0] else (0, 0)


def is_irreducible(matrix):
    """True iff some power of the matrix has a positive (i, j) entry for all i, j.

    Equivalently: the support digraph is strongly connected (and the single
    vertex carries a loop in the 1x1 case), so :func:`unreachable_pair`
    finds no witness.
    """
    rows = _square_rows(matrix)
    return bool(rows) and unreachable_pair(rows) is None


def satisfies_condition_I(matrix):
    """True iff every cycle of the support digraph has an exit.

    A cycle with no exit consists entirely of vertices of out-degree exactly
    one, so it suffices to search for a cycle inside the functional subgraph
    of out-degree-one vertices.  Defined here only for essential {0,1}
    matrices, matching the Cuntz-Krieger usage.
    """
    rows = _square_rows(matrix)
    for row in rows:
        for x in row:
            if x not in (0, 1):
                raise InputError("condition (I) is defined for {0,1} matrices")
    if not is_essential(rows):
        raise InputError("condition (I) is defined for essential matrices")
    succ = _support_successors(rows)
    next_of = {i: js[0] for i, js in enumerate(succ) if len(js) == 1}
    state = {}  # 1 = on current walk, 2 = finished
    for start in next_of:
        if state.get(start):
            continue
        walk = []
        v = start
        while v in next_of and state.get(v, 0) == 0:
            state[v] = 1
            walk.append(v)
            v = next_of[v]
        if v in next_of and state.get(v) == 1:
            return False  # closed a cycle of out-degree-one vertices: no exit
        for w in walk:
            state[w] = 2
    return True
