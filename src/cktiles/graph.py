"""Directed multigraphs realizing nonnegative integer matrices.

A square matrix M with entries in the nonnegative integers is realized as a
multigraph with M[i][j] parallel edges from vertex i+1 to vertex j+1.  Edges
carry a stable identity (source, range, multiplicity index) so that gluing
specifications serialize deterministically.

This module also houses the matrix-level structure tests used throughout:
essentiality (no zero row or column), irreducibility (strong connectivity of
the support digraph) and condition (I) (every cycle has an exit).
"""

from collections import deque, namedtuple
from itertools import chain

from .errors import InputError
from .matrices import IntMatrix


class Edge(namedtuple("Edge", "tag source range index")):
    """One directed edge; ``index`` runs 1..multiplicity within (source, range).
    Tuple-backed: it hashes (in C) and pickles as the tuple of its fields."""

    __slots__ = ()

    @property
    def key(self):
        """Identifier used in serialized form: (source, range, index)."""
        return (self.source, self.range, self.index)

    def __repr__(self):
        return f"{self.tag}({self.source},{self.range})#{self.index}"


class DirectedMultigraph(namedtuple("DirectedMultigraph", "vertex_count edges label")):
    """Immutable multigraph on vertices 1..vertex_count with canonically ordered edges.

    Edge lookups derived from ``edges`` live in the instance dict, outside the
    tuple: they take no part in equality, hashing or the repr.
    """

    def __new__(cls, vertex_count, edges, label):
        self = super().__new__(cls, vertex_count, edges, label)
        out = {}  # source -> its edges, in order
        for e in edges:
            out.setdefault(e[1], []).append(e)
        self._position = dict(zip(edges, range(len(edges))))
        self._by_key = {e[1:]: e for e in edges}
        self._out = out
        return self

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so ``_replace`` derives the lookups too."""
        return cls(*fields)

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


class _IntRows(list):
    """Lists of ints, as :func:`_int_rows` found; :func:`_square_rows` reads only their signs."""


class _SquareRows(list):
    """Rows :func:`_square_rows` has validated; it returns them as they are."""


def _int_rows(value):
    """``value`` as _IntRows if it is a list of lists of ints (bools refused), else None."""
    lists = type(value) is list and {*map(type, value)} <= {list}
    return _IntRows(value) if lists and {*map(type, chain.from_iterable(value))} <= {int} else None


def _square_rows(matrix):
    """Accept an IntMatrix or nested sequences; return validated row lists."""
    kind = type(matrix)
    if kind is _SquareRows:
        return matrix
    rows = matrix if kind is _IntRows else (
        matrix.to_lists() if isinstance(matrix, IntMatrix) else [list(r) for r in matrix]
    )
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError("matrix must be square")
        if kind is _IntRows and min(row, default=0) >= 0:
            continue  # its types are checked: read its sign in C
        for x in row:
            if type(x) is not int:
                raise InputError(f"matrix entries must be ints, got {x!r}")
            if x < 0:
                raise InputError(f"matrix entries must be nonnegative, got {x}")
    return _SquareRows(rows)


def graph_from_matrix(matrix, tag):
    """Realize a square nonnegative integer matrix as a directed multigraph.

    Entry (i, j) of the matrix becomes that many parallel edges from vertex
    i+1 to vertex j+1, enumerated deterministically.
    """
    rows = _square_rows(matrix)
    new = tuple.__new__  # Edge(...) without its Python-level __new__
    edges = tuple([
        new(Edge, (tag, i, j, k))
        for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1) if x for k in range(1, x + 1)
    ])
    return DirectedMultigraph(vertex_count=len(rows), edges=edges, label=tag)


def is_essential(matrix):
    """True iff every row sum and every column sum is positive."""
    rows = _square_rows(matrix)
    return all(map(any, rows)) and all(map(any, zip(*rows)))


def _support_successors(rows):
    return [[j for j, x in enumerate(row) if x] for row in rows]


def unreachable_pair(successors, required=None):
    """A witness (p, q) of 0-based vertices with no path from p to q, or None.

    ``successors[i]`` lists the heads of the edges out of vertex i; repeats
    are harmless.  Vertices from ``required`` on are waypoints that paths may
    pass through; by default there are none.  Two breadth-first searches from
    vertex 0, along the edges and against them, find the first required vertex
    q that 0 cannot reach, giving (0, q), or else the first that cannot reach
    0, giving (q, 0).  If both reach every required vertex, the witness is
    (0, 0) unless 0 lies on a cycle (without waypoints: unless there are two or
    more vertices or the one has a loop); None means irreducible.
    """
    n = len(successors) if required is None else required
    if n == 0:
        raise InputError("reachability needs at least one vertex")
    pred = [[] for _ in successors]
    for i, heads in enumerate(successors):
        for j in heads:
            pred[j].append(i)
    for adjacency, forward in ((successors, True), (pred, False)):
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
    return (0, 0) if seen.isdisjoint(successors[0]) else None


def is_irreducible(matrix):
    """True iff some power of the matrix has a positive (i, j) entry for all i, j.

    Equivalently: the support digraph is strongly connected (and the single
    vertex carries a loop in the 1x1 case), so :func:`unreachable_pair`
    finds no witness in its successor lists.
    """
    rows = _square_rows(matrix)
    return bool(rows) and unreachable_pair(_support_successors(rows)) is None


def satisfies_condition_I(matrix):
    """True iff every cycle of the support digraph has an exit.

    A cycle with no exit consists entirely of vertices of out-degree exactly
    one, so it suffices to search for a cycle inside the functional subgraph
    of out-degree-one vertices.  Defined here only for essential {0,1}
    matrices, matching the Cuntz-Krieger usage; essentiality is read off the
    successor lists, every vertex needing a successor and a predecessor, so
    a caller that has run :func:`is_essential` pays for no second pass.
    """
    rows = _square_rows(matrix)
    for row in rows:
        for x in row:
            if x not in (0, 1):
                raise InputError("condition (I) is defined for {0,1} matrices")
    succ = _support_successors(rows)
    if not all(succ) or len({j for js in succ for j in js}) < len(rows):
        raise InputError("condition (I) is defined for essential matrices")
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
