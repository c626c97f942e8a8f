import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cktiles import cli, closedform, corpus
from cktiles.closedform import verify_closed_form
from cktiles.corpus import circulant_matrix, standard_corpus
from cktiles.errors import CommutationError, InputError, SpecificationError
from cktiles.graph import graph_from_matrix, is_essential, satisfies_condition_I
from cktiles.ktheory import block_matrix_k0, kgroups_of_system
from cktiles.matrices import IntMatrix
from cktiles.textile import (
    Specification,
    Tile,
    build_system,
    canonical_specification,
    canonical_system,
    check_commutation,
    exchange_specification,
    exchange_system,
    sigma_ab,
    sigma_ba,
    validate_specification,
)
from cktiles.tiling import (
    check_diagonal_property,
    find_transitivity_witness,
    is_transitive_matrix,
    is_transitive_search,
)


def _graphs(a, b):
    return graph_from_matrix(a, "A"), graph_from_matrix(b, "B")


def test_sigma_ab_single_vertex():
    ga, gb = _graphs([[2]], [[3]])
    assert len(sigma_ab(ga, gb)) == 6
    assert len(sigma_ba(ga, gb)) == 6


def test_sigma_ab_permutation_with_identity():
    ga, gb = _graphs([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    pairs = sigma_ab(ga, gb)
    assert len(pairs) == 2
    for alpha, b in pairs:
        assert alpha.range == b.source


def test_sigma_sizes_equal_product_entry_sum(corpus):
    for entry in corpus:
        ga = entry.system.graph_a
        gb = entry.system.graph_b
        a = IntMatrix([list(r) for r in entry.matrix_a])
        b = IntMatrix([list(r) for r in entry.matrix_b])
        total = sum(sum(row) for row in (a @ b).data)
        assert len(sigma_ab(ga, gb)) == total
        assert len(sigma_ba(ga, gb)) == total
        assert len(entry.system.tiles) == total


def test_sigma_ab_vertex_count_mismatch():
    ga = graph_from_matrix([[1]], "A")
    gb = graph_from_matrix([[1, 0], [0, 1]], "B")
    with pytest.raises(InputError):
        sigma_ab(ga, gb)


def test_canonical_specification_single_vertex_is_lexicographic():
    ga, gb = _graphs([[2]], [[3]])
    kappa = canonical_specification(ga, gb)
    assert len(kappa.domain) == 6
    # one block: sorted (alpha, b) list matches sorted (a, beta) list positionally
    expected = list(zip(sigma_ab(ga, gb), sigma_ba(ga, gb)))
    assert list(kappa.items()) == expected
    assert validate_specification(kappa, ga, gb).ok


def test_canonical_specification_exists_for_equal_matrices():
    m = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    ga, gb = _graphs(m, m)
    kappa = canonical_specification(ga, gb)
    assert validate_specification(kappa, ga, gb).ok


def test_canonical_specification_forced_on_singleton_blocks():
    ga, gb = _graphs([[1, 1], [0, 1]], [[1, 0], [0, 1]])
    kappa = canonical_specification(ga, gb)
    for (alpha, b), (a, beta) in kappa.items():
        assert beta == alpha  # kappa(alpha, id-edge) = (id-edge, alpha)
        assert a.source == alpha.source and b.range == alpha.range
    # brute force: every endpoint-preserving bijection fixes each singleton block
    for (alpha, b), (a, beta) in kappa.items():
        candidates = [
            (a2, beta2)
            for a2, beta2 in sigma_ba(ga, gb)
            if a2.source == alpha.source and beta2.range == b.range
        ]
        assert candidates == [(a, beta)]


def test_canonical_specification_rejects_noncommuting():
    ga, gb = _graphs([[0, 1], [1, 0]], [[1, 1], [0, 1]])
    with pytest.raises(CommutationError) as exc:
        canonical_specification(ga, gb)
    assert exc.value.entry == (1, 1)


def test_exchange_specification_swaps_every_pair():
    kappa = exchange_specification(*_graphs([[2]], [[3]]))
    assert len(kappa.domain) == 6
    for (alpha, a), (image_a, image_beta) in kappa.items():
        assert image_a == a and image_beta == alpha


def test_exchange_specification_rejects_small():
    with pytest.raises(InputError):
        exchange_specification(*_graphs([[1]], [[3]]))
    with pytest.raises(InputError):
        exchange_specification(*_graphs([[2]], [[1]]))


def test_exchange_system_omega_is_full_product():
    for n, m in [(2, 2), (2, 3), (3, 4)]:
        sys_ = exchange_system(n, m)
        assert len(sys_.omega) == n * m
        assert set(sys_.omega) == {
            (alpha, a) for alpha in sys_.graph_a.edges for a in sys_.graph_b.edges
        }


def test_exchange_2_2_tiles():
    sys_ = exchange_system(2, 2)
    assert set(sys_.tiles) == {
        Tile(top=alpha, right=a, left=a, bottom=alpha)
        for alpha in sys_.graph_a.edges
        for a in sys_.graph_b.edges
    }
    assert len(sys_.tiles) == 4


def test_tiles_and_edges_hash_afresh_after_unpickling():
    # each caches its hash, but str hashes differ between processes, so a
    # hash carried in the pickle would miss the equal tile built here
    src = str(Path(__file__).resolve().parents[1] / "src")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys; from cktiles.textile import exchange_system; "
        "sys.stdout.buffer.write(pickle.dumps(exchange_system(2, 3).tiles))"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    loaded = pickle.loads(
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
    )
    fresh = exchange_system(2, 3).tiles
    assert loaded == fresh
    assert [hash(t) for t in loaded] == [hash(t) for t in fresh]
    assert set(loaded) == set(fresh)
    assert list(Tile._fields) == ["top", "right", "left", "bottom"]
    assert list(fresh[0].top._fields) == ["tag", "source", "range", "index"]


def test_tiles_hash_and_print_as_their_fields():
    tile = exchange_system(2, 3).tiles[1]
    ga, gb = _graphs([[2]], [[3]])
    assert tile == Tile(ga.edges[0], gb.edges[1], gb.edges[1], ga.edges[0])
    assert hash(tile) == hash((("A", 1, 1, 1), ("B", 1, 1, 2), ("B", 1, 1, 2), ("A", 1, 1, 1)))
    assert repr(tile) == str(tile) == "Tile(t=A(1,1)#1, r=B(1,1)#2, l=B(1,1)#2, b=A(1,1)#1)"


def test_library_specifications_are_valid_by_construction(random_family):
    # canonical_system, exchange_system and the CLI's canonical and exchange
    # kappa skip validate_specification (cli._check_payload says why), so
    # their validity is checked here
    for n in range(2, 9):
        for m in range(n, 9):
            ga, gb = _graphs([[n]], [[m]])
            assert validate_specification(exchange_specification(ga, gb), ga, gb).ok, (n, m)
    pairs = [(s.graph_a, s.graph_b) for s in random_family]
    for seed in (1302, 2012):
        for entry in standard_corpus(seed=seed):
            sys_ = entry.system
            assert validate_specification(sys_.kappa, sys_.graph_a, sys_.graph_b).ok, entry.label
            pairs.append((sys_.graph_a, sys_.graph_b))
    for ga, gb in pairs:
        assert validate_specification(canonical_specification(ga, gb), ga, gb).ok, (ga, gb)


def test_validate_specification_reports_plain_tuples_in_place_of_edges():
    # an Edge equals the plain tuple of its fields, but a kappa of tuples is
    # still reported, not raised on
    ga, gb = _graphs([[2]], [[2]])
    kappa = canonical_specification(ga, gb)
    plain = {(tuple(alpha), b): (a, tuple(beta)) for (alpha, b), (a, beta) in kappa.items()}
    report = validate_specification(Specification(tuple(plain), plain), ga, gb)
    assert (report.ok, report.failure) == (False, "domain-mismatch")
    images = {pair: (a, tuple(beta)) for pair, (a, beta) in kappa.items()}
    report = validate_specification(Specification(kappa.domain, images), ga, gb)
    assert (report.ok, report.failure) == (False, "endpoint-r(a)=s(beta)")


def test_validate_specification_reports_noninjective():
    ga, gb = _graphs([[2]], [[2]])
    pairs = sigma_ab(ga, gb)
    images = sigma_ba(ga, gb)
    mapping = {pair: images[0] for pair in pairs}  # everything to one image
    report = validate_specification(
        Specification(domain=tuple(pairs), mapping=mapping), ga, gb
    )
    assert not report.ok
    assert report.failure == "not-injective"
    assert report.pair in pairs


def test_validate_specification_reports_endpoint_violation():
    ga, gb = _graphs([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    pairs = sigma_ab(ga, gb)
    images = sigma_ba(ga, gb)
    # swap the two images: bijective, but s(alpha) = s(a) now fails
    mapping = {pairs[0]: images[1], pairs[1]: images[0]}
    report = validate_specification(
        Specification(domain=tuple(pairs), mapping=mapping), ga, gb
    )
    assert not report.ok
    assert report.failure == "endpoint-s(alpha)=s(a)"
    assert report.pair == pairs[0]


def test_validate_specification_reports_domain_mismatch():
    ga, gb = _graphs([[2]], [[2]])
    pairs = sigma_ab(ga, gb)
    images = sigma_ba(ga, gb)
    mapping = dict(zip(pairs[:-1], images[:-1]))
    report = validate_specification(
        Specification(domain=tuple(pairs[:-1]), mapping=mapping), ga, gb
    )
    assert not report.ok
    assert report.failure == "domain-mismatch"


def _edges(graph, *keys):
    return [graph.edge_by_key(key) for key in keys]


def test_validate_specification_reports_image_not_composable():
    ga, gb = _graphs([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    pairs = sigma_ab(ga, gb)
    a11, a22 = _edges(gb, (1, 1, 1), (2, 2, 1))
    beta12, beta21 = _edges(ga, (1, 2, 1), (2, 1, 1))
    # r(a) = 1 but s(beta) = 2
    mapping = {pairs[0]: (a11, beta21), pairs[1]: (a22, beta12)}
    report = validate_specification(Specification(domain=tuple(pairs), mapping=mapping), ga, gb)
    assert (report.ok, report.failure, report.pair) == (False, "endpoint-r(a)=s(beta)", pairs[0])
    assert report.detail == "image (B(1,1)#1, A(2,1)#1) is not a composable (a, beta) pair"


def test_validate_specification_reports_range_violation():
    ga, gb = _graphs([[1, 1], [1, 1]], [[1, 0], [0, 1]])
    pairs = sigma_ab(ga, gb)
    images = sigma_ba(ga, gb)
    # swap the images of the two pairs leaving vertex 1: composable, injective
    # and source-preserving, but r(b) = r(beta) fails
    mapping = dict(zip(pairs, [images[1], images[0]] + images[2:]))
    report = validate_specification(Specification(domain=tuple(pairs), mapping=mapping), ga, gb)
    assert (report.ok, report.failure, report.pair) == (False, "endpoint-r(b)=r(beta)", pairs[0])
    assert report.detail == "r(b)=1 but r(beta)=2"


def test_validate_specification_reports_not_surjective():
    # AB = [[1, 0], [0, 0]] and BA = [[1, 0], [1, 0]] differ, so these graphs
    # do not commute: one composable (alpha, b) pair, two (a, beta) pairs
    ga, gb = _graphs([[1, 0], [0, 0]], [[1, 0], [1, 0]])
    pairs = sigma_ab(ga, gb)
    images = sigma_ba(ga, gb)
    assert (len(pairs), len(images)) == (1, 2)
    report = validate_specification(
        Specification(domain=tuple(pairs), mapping={pairs[0]: images[0]}), ga, gb
    )
    assert (report.ok, report.failure, report.pair) == (False, "not-surjective", None)
    assert report.detail == "image covers 1 of 2 (a, beta) pairs"


def test_build_system_rejects_invalid_specification():
    ga, gb = _graphs([[2]], [[2]])
    pairs = sigma_ab(ga, gb)
    images = sigma_ba(ga, gb)
    mapping = {pair: images[0] for pair in pairs}
    with pytest.raises(SpecificationError):
        build_system(ga, gb, Specification(domain=tuple(pairs), mapping=mapping))


def test_exchange_transition_matrices_are_kronecker_products():
    for n, m in [(2, 2), (2, 3), (3, 4), (4, 5)]:
        sys_ = exchange_system(n, m)
        e_n = IntMatrix.all_ones(n)
        e_m = IntMatrix.all_ones(m)
        assert sys_.a_kappa == e_n.kron(IntMatrix.identity(m))
        assert sys_.b_kappa == IntMatrix.identity(n).kron(e_m)


def test_exchange_2_2_a_kappa_literal():
    sys_ = exchange_system(2, 2)
    assert sys_.a_kappa.to_lists() == [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]


def _literal_transition_matrices(sys_):
    """A_k and B_k by their defining formulas, over every pair of corner pairs.

    A_k has a 1 at ((alpha, a), (delta, b)) iff kappa(alpha, b) = (a, beta) for
    some beta; B_k has a 1 at ((alpha, a), (beta, d)) iff kappa(alpha, b) =
    (a, beta) for some b.
    """
    left_of = {pair: image[0] for pair, image in sys_.kappa.items()}
    glues = {(alpha, a, beta) for (alpha, _), (a, beta) in sys_.kappa.items()}
    omega = sys_.omega
    a_rows = [[int(left_of.get((alpha, b)) == a) for _, b in omega] for alpha, a in omega]
    b_rows = [[int((alpha, a, delta) in glues) for delta, _ in omega] for alpha, a in omega]
    return IntMatrix(a_rows), IntMatrix(b_rows)


def test_transition_matrices_match_the_literal_formulas():
    systems = [exchange_system(n, m) for n in range(2, 9) for m in range(n, 9)]
    corpus = standard_corpus(seed=1302, circulant_pairs=40)
    assert len(corpus) == 65
    systems += [e.system for e in corpus]
    # kappa(alpha_i, b_k) = (a_i, beta_k), the explicit gluing of the golden outputs
    ga, gb = _graphs([[2]], [[2]])
    mapping = {
        (alpha, b): (gb.edges[i], ga.edges[k])
        for i, alpha in enumerate(ga.edges) for k, b in enumerate(gb.edges)
    }
    systems.append(build_system(ga, gb, Specification(domain=tuple(mapping), mapping=mapping)))
    for sys_ in systems:
        assert (sys_.a_kappa, sys_.b_kappa) == _literal_transition_matrices(sys_), sys_


def test_h_kappa_block_structure(corpus):
    for entry in corpus:
        sys_ = entry.system
        n = len(sys_.omega)
        h = sys_.h_kappa
        assert h.shape == (2 * n, 2 * n)
        a, b = sys_.a_kappa, sys_.b_kappa
        for i in range(n):
            for j in range(n):
                assert h[i, j] == h[i, n + j] == a[i, j], entry.label
                assert h[n + i, j] == h[n + i, n + j] == b[i, j], entry.label


def test_dense_matrices_are_built_only_when_read(monkeypatch):
    dense = ("a_kappa", "b_kappa", "h_kappa")
    sys_ = exchange_system(3, 4)
    reducible = canonical_system([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    kgroups_of_system(sys_)
    block_matrix_k0(sys_)
    # everything `check` and `corpus` compute, reachability included
    assert cli._check_payload(sys_)[0]["checks"]["transitive"]["ok"]
    assert not cli._check_payload(reducible)[0]["checks"]["transitive"]["ok"]
    is_transitive_search(sys_)
    check_diagonal_property(sys_)
    find_transitivity_witness(sys_, sys_.tiles[0], sys_.tiles[-1], 2 * len(sys_.omega))
    built = []

    def recorded(n, m):
        built.append(exchange_system(n, m))
        return built[-1]

    monkeypatch.setattr(closedform, "exchange_system", recorded)
    verify_closed_form(3, 4)
    assert len(built) == 1
    for system in (sys_, reducible, *built):
        assert not [name for name in dense if name in system.__dict__]
    # the matrix criterion reads A_k + B_k but never H_k
    is_transitive_matrix(sys_)
    assert "h_kappa" not in sys_.__dict__
    for name in dense:
        assert getattr(sys_, name) is getattr(sys_, name)
        assert name in sys_.__dict__


def test_transition_matrices_essential(corpus):
    for entry in corpus:
        sys_ = entry.system
        for matrix in (sys_.a_kappa, sys_.b_kappa):
            for row in matrix.data:
                assert any(row), entry.label
            for col in zip(*matrix.data):
                assert any(col), entry.label
        # stacking the two essential halves gives >= 2 ones per block row,
        # which is why every cycle of the block matrix has an exit
        for row in sys_.h_kappa.data:
            assert sum(row) >= 2, entry.label


def test_check_commutation_exchange_and_circulant():
    assert check_commutation(exchange_system(3, 4))
    a = circulant_matrix(4, (1,))
    b = circulant_matrix(4, (0, 2))
    assert check_commutation(canonical_system(a, b))


def test_check_commutation_full_corpus(corpus):
    for entry in corpus:
        assert check_commutation(entry.system), entry.label


def test_random_specifications_meet_the_facts_check_states(random_family):
    # the check report states these without computing them; see cli._check_payload
    for sys_ in random_family:
        assert check_commutation(sys_), sys_
        assert is_essential(sys_.h_kappa), sys_
        assert satisfies_condition_I(sys_.h_kappa), sys_


def test_tiles_satisfy_endpoint_constraints(corpus):
    for entry in corpus:
        for t in entry.system.tiles:
            assert entry.system.kappa(t.top, t.right) == (t.left, t.bottom)
            assert t.top.source == t.left.source
            assert t.top.range == t.right.source
            assert t.left.range == t.bottom.source
            assert t.right.range == t.bottom.range


@pytest.mark.parametrize("count", [-1, True])
def test_standard_corpus_refuses_a_negative_or_bool_count(count):
    with pytest.raises(InputError, match="nonnegative int"):
        standard_corpus(circulant_pairs=count)


def test_standard_corpus_admits_counts_up_to_its_limit(monkeypatch):
    # the systems are stubbed out: only the count of entries is at stake here
    monkeypatch.setattr(corpus, "canonical_system", lambda a, b: None)
    monkeypatch.setattr(corpus, "exchange_system", lambda n, m: None)
    limit = corpus.MAX_CIRCULANT_PAIRS
    assert limit >= 40  # the largest count any test or golden pin uses
    assert len(standard_corpus(circulant_pairs=limit)) == 15 + 10 + limit
    with pytest.raises(InputError, match=f"at most {limit}, got {limit + 1}"):
        standard_corpus(circulant_pairs=limit + 1)
