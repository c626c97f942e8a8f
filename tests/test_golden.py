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
}

DOCUMENT_COMMANDS = {
    "check": ["check"],
    "check-pretty-matrices": ["check", "--pretty", "--emit-matrices"],
    "kgroups": ["kgroups"],
    "tiles": ["tiles"],
}

PLAIN_COMMANDS = {
    "closedform-2-3": ["closedform", "2", "3"],
    "closedform-4-9": ["closedform", "4", "9"],
    "sweep-6-7": ["sweep", "6", "7"],
    "corpus": ["corpus"],
    "corpus-seed-7-count-30": ["corpus", "--seed", "7", "--count", "30"],
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
    "corpus": ("cef7d21f438fa5f581599e9b3ec96f2422d7e49a18681f31cffd2b847084848b", 0),
    "corpus-seed-7-count-30": ("86cfae4acad853df34993ce9fffb82e39f420f37257f39a6256b931925215aeb", 0),
}


def _cases():
    for doc in DOCUMENTS:
        for command in DOCUMENT_COMMANDS:
            yield f"{command}:{doc}"
    yield from PLAIN_COMMANDS


def _outcome(case, tmp_path, capsys):
    if case in PLAIN_COMMANDS:
        argv = PLAIN_COMMANDS[case]
    else:
        command, doc = case.split(":")
        path = tmp_path / f"{doc}.json"
        path.write_text(json.dumps(DOCUMENTS[doc]), encoding="utf-8")
        argv = DOCUMENT_COMMANDS[command] + [str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode("utf-8")).hexdigest(), code


def test_every_case_has_a_recorded_digest():
    assert sorted(GOLDEN) == sorted(_cases())


@pytest.mark.parametrize("case", list(_cases()))
def test_cli_output_matches_golden_digest(case, tmp_path, capsys):
    assert _outcome(case, tmp_path, capsys) == GOLDEN[case]
