"""Golden CLI outputs: stdout digests and exit codes that must not change.

Each case runs ``cktiles.cli.main`` in-process and compares the SHA-256 of
stdout and the exit code with values recorded before the K-group and
reachability code paths were consolidated, so JSON and ``--pretty`` output
stay byte-identical across refactors.  To re-record after an intended
output change, print ``_outcome(...)`` for every case and paste the table.
"""

import hashlib
import json

import pytest

from cktiles.cli import main
from conftest import random_kappa_document


def _circulant(n, shifts):
    return [[int((j - i) % n in shifts) for j in range(n)] for i in range(n)]


def _identity(n):
    return _circulant(n, {0})


# kappa(alpha_i, b_k) = (a_i, beta_k): a valid gluing of [[2]], [[2]] that is
# not the exchange specification
_EXPLICIT_KAPPA = [
    [[[1, 1, i], [1, 1, k]], [[1, 1, i], [1, 1, k]]] for i in (1, 2) for k in (1, 2)
]

DOCUMENTS = {
    "exchange-2-3": {"A": [[2]], "B": [[3]], "kappa": "exchange"},
    "exchange-5-7": {"A": [[5]], "B": [[7]], "kappa": "exchange"},
    "identity-2": {"A": _identity(2), "B": _identity(2)},
    "identity-3": {"A": _identity(3), "B": _identity(3)},
    "circulant-3": {"A": _circulant(3, {1}), "B": _circulant(3, {0, 2})},
    "swap-ones": {"A": [[0, 1], [1, 0]], "B": [[1, 1], [1, 1]]},
    "explicit-2-2": {"A": [[2]], "B": [[2]], "kappa": _EXPLICIT_KAPPA},
    "exchange-9-12": {"A": [[9]], "B": [[12]], "kappa": "exchange"},
    "exchange-11-12": {"A": [[11]], "B": [[12]], "kappa": "exchange"},
}

# random specifications at scale (117 and 141 corner pairs): explicit kappa
# documents far past explicit-2-2, on the commands that read the whole system
SCALE_DOCUMENTS = {
    "random-12-15": random_kappa_document([[12]], [[15]], seed=1),
    "random-circulant-8": random_kappa_document(
        _circulant(8, {0, 1, 3, 4, 6}), _circulant(8, {0, 1, 2, 5, 7}), seed=1
    ),
}

SCALE_COMMANDS = ("check", "kgroups", "witness")

# circulant systems whose (s, r) blocks hold several (alpha, b) pairs, so the
# canonical matching, the tile order and the corner-pair order all show
BLOCK_DOCUMENTS = {
    "circulant-6-124-234": {"A": _circulant(6, {1, 2, 4}), "B": _circulant(6, {2, 3, 4})},
    "circulant-6-03-03": {"A": _circulant(6, {0, 3}), "B": _circulant(6, {0, 3})},
}

BLOCK_COMMANDS = ("check", "tiles", "witness")

# exchange(20, 20), n = 400, on the command that computes both K0 presentations
LARGE_DOCUMENTS = {"exchange-20-20": {"A": [[20]], "B": [[20]], "kappa": "exchange"}}

LARGE_COMMANDS = ("kgroups",)

# witness pins beyond ``witness 0 1``: a high-index pair on a 56-tile system,
# a pair found at the default bound but not within two moves, and a pair with
# no witness at any bound on a non-transitive system
WITNESS_PINS = {
    "witness-3-40:exchange-7-8": (
        ["witness", "3", "40"], {"A": [[7]], "B": [[8]], "kappa": "exchange"}
    ),
    "witness-0-2-max-steps-2:circulant-3": (
        ["witness", "0", "2", "--max-steps", "2"], DOCUMENTS["circulant-3"]
    ),
    "witness-0-4:circulant-6-03-03": (
        ["witness", "0", "4"], {"A": _circulant(6, {0, 3}), "B": _circulant(6, {0, 3})}
    ),
    "witness-pretty-3-40:exchange-7-8": (
        ["witness", "--pretty", "3", "40"], {"A": [[7]], "B": [[8]], "kappa": "exchange"}
    ),
}

DOCUMENT_COMMANDS = {
    "check": ["check"],
    "check-pretty-matrices": ["check", "--pretty", "--emit-matrices"],
    "kgroups": ["kgroups"],
    "tiles": ["tiles"],
    "witness": ["witness", "0", "1"],
    "kgroups-matrices": ["kgroups", "--emit-matrices"],
}

PLAIN_COMMANDS = {
    "closedform-2-3": ["closedform", "2", "3"],
    "closedform-4-9": ["closedform", "4", "9"],
    "closedform-9-14": ["closedform", "9", "14"],
    "sweep-6-7": ["sweep", "6", "7"],
    "sweep-3-9": ["sweep", "3", "9"],
    "corpus": ["corpus"],
    "corpus-seed-7-count-30": ["corpus", "--seed", "7", "--count", "30"],
    "closedform-3-5": ["closedform", "3", "5"],
    "closedform-5-5": ["closedform", "5", "5"],
    "closedform-pretty-4-9": ["closedform", "--pretty", "4", "9"],
    "sweep-pretty-3-4": ["sweep", "--pretty", "3", "4"],
    "corpus-count-0": ["corpus", "--count", "0"],
    "closedform-40-40": ["closedform", "40", "40"],
    "sweep-12-14": ["sweep", "12", "14"],
}

# case -> (SHA-256 of stdout, exit code)
GOLDEN = {
    "check:exchange-2-3": ("956a6ce26d33cc0af599f4b7a849bb28fbfdac4a5d35598600c3beaf56af2053", 0),
    "check-pretty-matrices:exchange-2-3": ("9fd3b05ddf5a096551ba3ec71ff37184a9c78e8ba00e522b76fb0e72e2e43507", 0),
    "kgroups:exchange-2-3": ("a4ff7bd559ecdfa111c1e50892c9781fe97ec4f3b5775c89b89fa5b6a20b1fee", 0),
    "tiles:exchange-2-3": ("cb8eca5e627671c2e71935110a4e3fed31527c8bac206624888340f198d83696", 0),
    "check:exchange-5-7": ("fa82d63b0877c5c245adffabb90cb4a50ab92896622cf2b13637ca2d09f271b0", 0),
    "check-pretty-matrices:exchange-5-7": ("93c062af0a07bea66391a40d043946e7ff5fbdf000f6d0e97f479f7061757153", 0),
    "kgroups:exchange-5-7": ("bd386f039d8a024dbe8ab7c704ef89e071e665e8be4fd2d90c1e52c682128c53", 0),
    "tiles:exchange-5-7": ("1040ae002ccd6387f38df9b99b47324d32d07baebe9819c0dd5417fcf280234d", 0),
    "check:identity-2": ("9bbecf87697edb51c26cb07727dff5431f150c412278c1d7c0343eb6518595f0", 0),
    "check-pretty-matrices:identity-2": ("28af47f95e10861b732ac9c0c1f4003672b8194a905330cf5d411b24b047b90e", 0),
    "kgroups:identity-2": ("021c4767cc711a5eaee860d5306dccd93c8466ac31ef615046b54fb7b58fc73a", 0),
    "tiles:identity-2": ("09c5bbff8475fb9afe66e68f046772137815b425f6eaca3d3fe92539d076f27e", 0),
    "check:identity-3": ("6cfca0bb3ed8bfec691e8f302342f89e0869dd1ca03ddfe927ae5a97708a9d3a", 0),
    "check-pretty-matrices:identity-3": ("54fef0f3fbaf0b1cf9d3d87d15b0c71cbcb3fc9f8f812464346895d8069b6578", 0),
    "kgroups:identity-3": ("dd6ba471eb1f70dbf8feabe00de08f1db7ff27a4eaf231d548de7cd5d756991f", 0),
    "tiles:identity-3": ("25c4252ffc60d2bbe7f58d870e02b8c859df23c034e3532b8729cd3dc448208b", 0),
    "check:circulant-3": ("2188b827700b03ec818760ed6945bc127d50a9bad707ff7ea6c9a0cd3a51fd56", 0),
    "check-pretty-matrices:circulant-3": ("16d8f564324728b4a9b276955510354f40964b6caadb8924438d24e696856541", 0),
    "kgroups:circulant-3": ("d479a0c99c332812cfd7231031f943b9dab3075d2346649f4c8b8bf616ceffc6", 0),
    "tiles:circulant-3": ("cc94a455acd470e9788905773c9d917104b25f20866f1ee10ef8bc08c3aca4e7", 0),
    "check:swap-ones": ("07668c1188025f7105020ba4f001ab31901976ba28a7889393f3739ea386e0c3", 0),
    "check-pretty-matrices:swap-ones": ("507d87d7eebd854bd4421b489aec4121a68a31a8e6c8ab93cb25465b3a4444a6", 0),
    "kgroups:swap-ones": ("1b430c24969eb6ae6fa3aeb43d22473bc34b277cb1885afe1d5e2e6782407032", 0),
    "tiles:swap-ones": ("3a8395b4c317046688ebf3fd065b1b322876137edbfa1895f0b466a7bb698bef", 0),
    "check:explicit-2-2": ("809529d7291d2dd7fb6231ec07c2eb8a2b62ac09733a14be2559df54ed2c129d", 0),
    "check-pretty-matrices:explicit-2-2": ("b90209c692c1e08ded972ce1b83bc83870fd866a756fe1dc16e9f75a20a2dc71", 0),
    "kgroups:explicit-2-2": ("563d72a64b12d6e02c48ae9893858c58e077138e4d2af60a5749f19ad2fbb0af", 0),
    "tiles:explicit-2-2": ("242952177cf230806fb49e80e8622c428b7ec231f7dd2ff2de792a6aa12ce15a", 0),
    "closedform-2-3": ("558ee4eda233f302912fa647f1bbc138e15d91154e84dc74bb98ce66c4212771", 0),
    "closedform-4-9": ("7525da8071424e9e597aa75a7d242a93bb7d4d25e4adbc017aa87205806e1f6f", 0),
    "sweep-6-7": ("e9716a14f9f88195d41015e20b4f568b83ece60202e0cd4e0c5c3d5aeafd4cc8", 0),
    "closedform-9-14": ("1184bac1061504cc5cad7fd542f5563292628f1662285141ce3e7b1ec3ded44f", 0),
    "sweep-3-9": ("92fecf85aed75b3b4312b2e48c6be19ab56a678e78aa10642675be89e18e396d", 0),
    "corpus": ("cef7d21f438fa5f581599e9b3ec96f2422d7e49a18681f31cffd2b847084848b", 0),
    "corpus-seed-7-count-30": ("86cfae4acad853df34993ce9fffb82e39f420f37257f39a6256b931925215aeb", 0),
    # exchange(9, 12) is the entry-growth case; the unit elimination leaves
    # a different core for exchange(11, 12) depending on pivot order
    "check:exchange-9-12": ("670f074fa2fb386d51c73af51059449d559858973808bed74ee4aea946a107ad", 0),
    "check-pretty-matrices:exchange-9-12": ("60eaf8c73142fc894b70ccaeab824af2c0f2493c1bd9f73b87eaf64c5482f0da", 0),
    "kgroups:exchange-9-12": ("95e0ac622f22f135f3734f6c647f99a7049698f72e69fa896ef909bcdd02ad10", 0),
    "tiles:exchange-9-12": ("02c82bd57838dd7af5a5e45c992591e96c8d5fe8635d2645dbde3ec33633493e", 0),
    "check:exchange-11-12": ("a9eeaa204117430b904db14717acf261f2aa224b458dda3d990d2852e48336fa", 0),
    "check-pretty-matrices:exchange-11-12": ("20d6b21d04561210e9603881ada4e8a0fb454b243d5daa4686a8d49d7e0cadcc", 0),
    "kgroups:exchange-11-12": ("a0933a43e49ac2fdc79ad3b39b3c4ecbe8db56540fd66b8665c97313595d5578", 0),
    "tiles:exchange-11-12": ("93ac8e82af8f03447e4e9afbf101b60ade24d519b45d8ee8bc9cb007226d7bfe", 0),
    # the witness output, kgroups with H_k emitted, divisible Euclid traces
    # other than (2, 3), pretty closedform and sweep, and an empty corpus draw
    "witness:exchange-2-3": ("53c1a6434eba3205d1a1e3daab2fc0abbb5a4936e98dc413cf27c1a9e8fd6626", 0),
    "kgroups-matrices:exchange-2-3": ("eda8c880b54f492602158313941902bd7d1bae2e208260624674b29d0f165af4", 0),
    "witness:exchange-5-7": ("d29fbfccb5c52bb106682b66a896df453738fd65fe76f4878886ecd382e3c743", 0),
    "kgroups-matrices:exchange-5-7": ("615c23d95c84b6982fde6fbc2a5ba4027ebd1db770b3cea83dcd7cc9cbd33390", 0),
    "witness:identity-2": ("a7d1eda0bb786e17c18d9a5b48be51cde9cf3aed28fe743ac00fe4d1305db583", 0),
    "kgroups-matrices:identity-2": ("d6518133fe09572711561e1dc78136a5ee1fa8498ed8b573227d201464414b0e", 0),
    "witness:identity-3": ("aa919fb7b3a7d3b5d2e539a0817f87335ee6168bbe38da37fe5e0e4b8607076b", 0),
    "kgroups-matrices:identity-3": ("17ddba322d4b4870c3da105f28ba343ff34ee20a30867f8c4b6b1c84405fa9dc", 0),
    "witness:circulant-3": ("c71091abd6af1c8008d294996833e3bd31c0cf39da17e2a21869f1b545d767cd", 0),
    "kgroups-matrices:circulant-3": ("aa51b4324378c03728383a727cd533d4c156a8b8f372cae3da734a5a2cb8e0d4", 0),
    "witness:swap-ones": ("89b1593ae39b9f55ba99ef2a4e825dddf79064ddf112af7ce5c65032bb5e1741", 0),
    "kgroups-matrices:swap-ones": ("83b97ff1352607ec313771bbce65b886e6e08588f36903352a3f440090c3264d", 0),
    "witness:explicit-2-2": ("e1f00d62c339291ac7e9a7f07a6a03a07c5bcfe8f17f1e7153ccc2d6b041b645", 0),
    "kgroups-matrices:explicit-2-2": ("8fdd36ca23732b25e8ca7a3aa5d038bea781e75f9a6494f0affaa243aa82a68b", 0),
    "witness:exchange-9-12": ("b78b8087e02334c7b7d02c8fe9d1a41b795ed3993102173fe7d4d65c21625da1", 0),
    "kgroups-matrices:exchange-9-12": ("90debdded567a7f01ee22cfd55fa1cccc8caec075234d0236f8ac3bf6c09a78b", 0),
    "witness:exchange-11-12": ("7a9ceddd50c31c03b134e8471bb6e02b23c598ea4658fc24464d835374307ef3", 0),
    "kgroups-matrices:exchange-11-12": ("c4d6dc4fda9e32897ad403e2c81d4f63ce3739da90d1df62817259dce589037d", 0),
    "closedform-3-5": ("619a736905f2f4f3fe89844f6cde233192269ae2497d87aaf211d6ad41ba303e", 0),
    "closedform-5-5": ("1fecd02720b82595f8b7f6f3b44188efab4263005aa7961a9aa101d59f6b2a8b", 0),
    "closedform-pretty-4-9": ("ea267de632bc5733665a21b7c4e7fb4d085c03789ca5fe926239a95e6402060e", 0),
    "sweep-pretty-3-4": ("eb1693dbe02d1e4fd7b004f33fee6be92a23b6c0cc7d2a34dd8388afe8b0d813", 0),
    "corpus-count-0": ("dac795d0a13129838a9346385dd46f7b3181e544a4154d9b0c04d79cde1d5f88", 0),
    # random explicit kappa at scale, recorded while check still rescanned
    # commutation, essentiality, condition (I) and the diagonal property
    "check:random-12-15": ("01581f1e7ca7f4289aaccc670cde42f5b36d7a21894840d2164f35dcf8905aca", 0),
    "kgroups:random-12-15": ("55b8c3f395536416ccdb1ddace7e7e83deb9aa0222f55e84492e6978f2f21f5d", 0),
    "witness:random-12-15": ("163631c84609c34f489aef1a5d7cf10c68f15db6227d57945fda5f4cd765ec43", 0),
    "check:random-circulant-8": ("cea6b8a5038ed2795f582ac720be24e2bdd754df017c2e811c6b0f835d90e53f", 0),
    "kgroups:random-circulant-8": ("1314f26395d143c74f4291582619eb4707a7965fe8573429b2dd742fcda0659a", 0),
    "witness:random-circulant-8": ("b40f446d523b6a84d16efad0f2486088105c2389d7ed7206e610cc746f207005", 0),
    # blocks of several pairs, recorded before Edge, Tile and the corner-pair
    # order were built from tuple slices and integer keys
    "check:circulant-6-124-234": ("b9e748bd657ec3dbad032236f8e25598b672f39bdb80c54a8791e02a017e8038", 0),
    "tiles:circulant-6-124-234": ("e91e14578bf32fc32f76a66552dd21cead26fa5af6e2ff48385a40059b11040c", 0),
    "witness:circulant-6-124-234": ("8fe6ff5a78b6fde3685224d874db2ea28ab413f0dffb84f02ff3f8cac5490b8a", 0),
    "check:circulant-6-03-03": ("11e50057995cc2e009522d8bf6db773479a72a23878614e7ccead6b35f8193dc", 0),
    "tiles:circulant-6-03-03": ("a07085328bae25c3e3efaac0f07397c521bce8f57acb13f898a7785bde5a5141", 0),
    "witness:circulant-6-03-03": ("26906c867723f827876c65ade01368bd48e3f737f73bd9bbfc42e626cf930b47", 0),
    # recorded while K0 was still the cokernel of the n x n matrix
    # A_k + B_k - I_n, before the (|E_A| + |E_B|)-square edge presentation
    "closedform-40-40": ("34742f419c4e62f863f1890c197d561847f7d5c0403c6f7bcbdb33d7bac69bec", 0),
    "sweep-12-14": ("385d93d913b17520b36428a36598a01ad7b78f2071120b2faebe4084ba227070", 0),
    "kgroups:exchange-20-20": ("ff72bda9acc941a3623590e4e35e70892b394ed008b627c173e9a9566c347ee9", 0),
    # recorded while the witness search tested its goal when it dequeued a state
    "witness-3-40:exchange-7-8": ("f2d0d1dbafdc89d8c39fda77622969fb12344d90452154b874ad26739d886d9a", 0),
    "witness-0-2-max-steps-2:circulant-3": ("6215d63a40948c8ab24ef66004745ecaf7d31051e07102a2f1e710a932a6c3e6", 0),
    "witness-0-4:circulant-6-03-03": ("b13f93b4e11c5b0490648efe5199621250d577a47f19685dcfb1f82384cd8419", 0),
    # recorded while cmd_witness still mapped witness tiles back to indices
    "witness-pretty-3-40:exchange-7-8": ("ab3983009c97b1ffdc875557aacd352d9fb43f5b3d0724cad51460d89490eacc", 0),
}


def _cases():
    for doc in DOCUMENTS:
        for command in DOCUMENT_COMMANDS:
            yield f"{command}:{doc}"
    for doc in SCALE_DOCUMENTS:
        for command in SCALE_COMMANDS:
            yield f"{command}:{doc}"
    for doc in BLOCK_DOCUMENTS:
        for command in BLOCK_COMMANDS:
            yield f"{command}:{doc}"
    for doc in LARGE_DOCUMENTS:
        for command in LARGE_COMMANDS:
            yield f"{command}:{doc}"
    yield from WITNESS_PINS
    yield from PLAIN_COMMANDS


def _outcome(case, tmp_path, capsys):
    if case in PLAIN_COMMANDS:
        argv = PLAIN_COMMANDS[case]
    elif case in WITNESS_PINS:
        argv, document = WITNESS_PINS[case]
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = argv + [str(path)]
    else:
        command, doc = case.split(":")
        path = tmp_path / f"{doc}.json"
        document = {**DOCUMENTS, **SCALE_DOCUMENTS, **BLOCK_DOCUMENTS, **LARGE_DOCUMENTS}[doc]
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = DOCUMENT_COMMANDS[command] + [str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode("utf-8")).hexdigest(), code


def test_every_case_has_a_recorded_digest():
    assert sorted(GOLDEN) == sorted(_cases())


@pytest.mark.parametrize("case", list(_cases()))
def test_cli_output_matches_golden_digest(case, tmp_path, capsys):
    assert _outcome(case, tmp_path, capsys) == GOLDEN[case]
