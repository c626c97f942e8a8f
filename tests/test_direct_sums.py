"""Direct sums: K0 of a block-diagonal system is the sum of its blocks' K0.

Take A = A_1 + ... + A_r and B = B_1 + ... + B_r block-diagonal, with kappa
the union of the blocks' specifications.  Edges, corner pairs and tiles
split by block, so both K0 presentations are block-diagonal up to order and
K0 of the sum is the direct sum of the blocks' K0, likewise K1.  An exchange
block takes its group from the closed form, with its swap kappa carried as
an explicit Specification; a corpus member under the canonical kappa takes
its group from its own system.  The vertices are renamed by one drawn
permutation, so the blocks' rows and corner pairs interleave and neither
elimination can pass by working one block at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cktiles.closedform import closed_form_kgroups
from cktiles.graph import graph_from_matrix
from cktiles.ktheory import block_matrix_k0, canonicalize, kgroups_of_system
from cktiles.textile import Specification, build_system, exchange_system
from cktiles.tiling import is_transitive_matrix, is_transitive_search

EXCHANGE_PAIRS = [(n, m) for n in range(2, 7) for m in range(n, 7)]


def _direct_sum(blocks, rng):
    """The system of the blocks' direct sum, vertices renamed by a drawn permutation
    and kappa carried over as an explicit mapping whose domain comes in drawn order."""
    offsets, total = [], 0
    for block in blocks:
        offsets.append(total)
        total += block.graph_a.vertex_count
    vertex = list(range(1, total + 1))
    rng.shuffle(vertex)  # vertex[offset + v - 1] is block vertex v in the sum
    graphs = []
    for label in ("A", "B"):
        rows = [[0] * total for _ in range(total)]
        for block, offset in zip(blocks, offsets):
            graph = block.graph_a if label == "A" else block.graph_b
            for edge in graph.edges:
                rows[vertex[offset + edge.source - 1] - 1][vertex[offset + edge.range - 1] - 1] += 1
        graphs.append(graph_from_matrix(rows, label))
    mapping = {}
    for block, offset in zip(blocks, offsets):
        def moved(edge):
            graph = graphs[0] if edge.tag == "A" else graphs[1]
            s, r = vertex[offset + edge.source - 1], vertex[offset + edge.range - 1]
            return graph.edge_by_key((s, r, edge.index))

        for (alpha, b), (a, beta) in block.kappa.items():
            mapping[moved(alpha), moved(b)] = moved(a), moved(beta)
    domain = list(mapping)
    rng.shuffle(domain)
    return build_system(*graphs, Specification(domain=tuple(domain), mapping=mapping))


def _blocks(corpus):
    canonical = [entry.system for entry in corpus if not entry.label.startswith("exchange")]
    exchange = st.sampled_from(EXCHANGE_PAIRS).map(lambda pair: ("exchange", pair))
    member = st.sampled_from(range(len(canonical))).map(lambda i: ("corpus", canonical[i]))
    return st.lists(st.one_of(exchange, member), min_size=2, max_size=3)


def _block_and_orders(kind, value):
    """A block's system and its K0 as cyclic orders (0 for each Z), with its K1 rank."""
    if kind == "exchange":
        return exchange_system(*value), list(closed_form_kgroups(*value).summands), 0
    groups = kgroups_of_system(value)
    return value, [0] * groups.k0.free_rank + list(groups.k0.torsion), groups.k1.free_rank


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_k_groups_of_an_interleaved_direct_sum_are_the_sums_of_the_blocks(corpus, data):
    drawn = data.draw(_blocks(corpus))
    blocks, orders, k1_rank = [], [], 0
    for kind, value in drawn:
        block, block_orders, block_k1 = _block_and_orders(kind, value)
        blocks.append(block)
        orders += block_orders
        k1_rank += block_k1
    whole = _direct_sum(blocks, data.draw(st.randoms(use_true_random=False)))
    assert len(whole.tiles) == sum(len(block.tiles) for block in blocks)
    expected = canonicalize(orders)
    groups = kgroups_of_system(whole)
    assert groups.k0 == expected
    assert groups.k1.free_rank == k1_rank
    assert block_matrix_k0(whole) == expected
    # no staircase joins two blocks; the search is monotone in its bound, so
    # False at the default and at 10**9 is False at every bound
    assert not is_transitive_matrix(whole)
    assert not is_transitive_search(whole) and not is_transitive_search(whole, 10**9)
