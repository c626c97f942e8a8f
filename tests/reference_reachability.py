"""Reference reachability: the corner-pair search as written before transitivity
was searched corner → edge → corner.  It lists every 1 of A_k + B_k as the
heads of each corner pair, lists their reverse, and runs two breadth-first
searches from corner pair 0.  ``tests/test_reachability.py`` checks that
``tiling._unreachable_corner_pair`` gives its witness on every system family
the tests use.
"""

from collections import deque

import reference_build as ref


def unreachable_pair(successors):
    """(0, q) for the first vertex 0 cannot reach, else (q, 0) for the first that
    cannot reach 0, else (0, 0) for a loopless single vertex, else None."""
    n = len(successors)
    pred = [[] for _ in range(n)]
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
    return None if n > 1 or 0 in successors[0] else (0, 0)


def unreachable_corner_pair(system):
    """The witness on A_k + B_k, its 1s read off the reference successor lists."""
    heads = [[] for _ in system.omega]
    for i, right, below in ref.successors(system):
        heads[i] += [*right, *below]
    return unreachable_pair(heads)
