"""Command-line front end.

Subcommands: check, kgroups, closedform N M, sweep NMAX MMAX, tiles,
witness T T', corpus.  System descriptions are JSON documents with fields
"A", "B" and "kappa" ("canonical", "exchange", or an explicit list of
mapping entries using (source, range, index) edge identifiers), read from a
file path argument or standard input.

Exit codes: 0 success; 1 a computed check or comparison failed; 2 parse
error; 3 input error; 4 commutation error; 5 invalid specification.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .closedform import verify_closed_form
from .corpus import standard_corpus
from .errors import CommutationError, InputError, SpecificationError
from .graph import _int_rows
from .ktheory import block_matrix_k0, kgroups_of_system
from .textile import (
    Specification,
    _assemble,
    build_system,
    canonical_system,
    essential_graphs,
    exchange_specification,
    require_commuting,
)
from .tiling import _unreachable_corner_pair, witness_path

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_COMMUTATION = 4
EXIT_KAPPA = 5
MAX_DOCUMENT = 64 * 2**20  # characters; a compact explicit kappa at MAX_TILES is 14 to 28 MB
MAX_EMITTED = 500  # corner pairs n; A_k, B_k and H_k print 6n^2 entries, about 16 MB at n = 500


class ParseError(ValueError):
    pass


def _load_payload(path):
    """The JSON object read from ``path`` or standard input, refused past MAX_DOCUMENT
    characters after reading at most one more."""
    from_stdin = path is None or path == "-"
    try:
        if from_stdin:
            text = sys.stdin.read(MAX_DOCUMENT + 1)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read(MAX_DOCUMENT + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {'standard input' if from_stdin else path}: {exc}") from exc
    if len(text) > MAX_DOCUMENT:
        raise InputError(f"document too large: over the limit of {MAX_DOCUMENT} characters")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or an over-long int
        raise ParseError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("input must be a JSON object")
    return payload


def _require_matrix(payload, name):
    """The rows, whose entry types are read here only (the graph layer reads their signs)."""
    value = payload.get(name)
    rows = _int_rows(value) if value else None
    if not rows:
        raise ParseError(f'field "{name}" must be a nonempty list of integer rows')
    return rows


def _edge_from_id(graph, value):
    if not (isinstance(value, list) and len(value) == 3 and all(type(x) is int for x in value)):
        raise ParseError(f"edge identifiers must be [source, range, index] triples, got {value!r}")
    return graph.edge_by_key(tuple(value))


def _parse_system(payload):
    matrix_a = _require_matrix(payload, "A")
    matrix_b = _require_matrix(payload, "B")
    kappa_field = payload.get("kappa", "canonical")
    if kappa_field == "canonical":
        return canonical_system(matrix_a, matrix_b)
    ga, gb = essential_graphs(matrix_a, matrix_b)
    require_commuting(ga, gb)
    if kappa_field == "exchange":
        return _assemble(ga, gb, exchange_specification(ga, gb))
    if not isinstance(kappa_field, list):
        raise ParseError('field "kappa" must be "canonical", "exchange" or a list of entries')
    mapping = {}
    for entry in kappa_field:
        if not (
            isinstance(entry, list) and len(entry) == 2
            and all(isinstance(half, list) and len(half) == 2 for half in entry)
        ):
            raise ParseError("explicit kappa entries must be [[alpha,b],[a,beta]] pairs")
        (alpha_id, b_id), (a_id, beta_id) = entry
        pair = (_edge_from_id(ga, alpha_id), _edge_from_id(gb, b_id))
        image = (_edge_from_id(gb, a_id), _edge_from_id(ga, beta_id))
        if pair in mapping:
            raise SpecificationError(f"duplicate kappa entry for {pair!r}")
        mapping[pair] = image
    return build_system(ga, gb, Specification(domain=tuple(mapping), mapping=mapping))


def _group_payload(group):
    return {
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "text": str(group),
    }


def _kgroups_payload(sys_):
    """K0 and K1, with K0 recomputed from the block matrix as a cross-check."""
    groups = kgroups_of_system(sys_)
    k0_from_block = block_matrix_k0(sys_)
    return {
        "k0": _group_payload(groups.k0),
        "k1": _group_payload(groups.k1),
        "k0_from_block_matrix": _group_payload(k0_from_block),
        "block_matrix_cross_check": groups.k0 == k0_from_block,
    }


def _check_payload(sys_):
    """The check report and whether the block-matrix K0 cross-check agreed.

    Every system here passed textile.essential_graphs (A and B essential)
    and require_commuting (AB = BA), so eight structural facts hold by
    construction and only reachability and the K-groups are computed.
    - kappa_valid: build_system validated an explicit kappa.  The canonical
      one matches each (s, r) block's |AB(s, r)| = |BA(s, r)| pairs position
      by position; the exchange one swaps every pair on a single vertex.
    Why the four facts about the built system hold:
    - transition_commute: at x = (alpha, a), z = (gamma, e), A_k B_k counts the
      B-edges c with kappa(alpha, c) = (a, .) and r(c) = s(gamma), B_k A_k the
      A-edges beta with kappa^-1(a, beta) = (alpha, .) and r(beta) = s(e);
      kappa maps the first set onto the second keeping r(c) = r(beta), and
      s(gamma) = s(e) because z is a corner pair.
    - h_essential: A and B have no zero row or column and kappa is onto, so
      every B-edge is the left and the right edge of some tile and every
      A-edge its top and bottom: each corner pair has a successor and a
      predecessor in A_k and in B_k.
    - h_condition_I: each row of H_k is a row of A_k or B_k written twice, so
      every out-degree is even; an essential H_k has no vertex of out-degree
      1, and only those can form a cycle with no exit.
    - diagonal_property: a tile is fixed by its (top, right) pair, its domain
      pair, and by its (left, bottom) pair, its image, so each diagonal pair
      has at most one tile below and one beside.
    """
    unreachable = _unreachable_corner_pair(sys_)
    transitive = unreachable is None
    transitive_detail = "A_k + B_k is irreducible" if transitive else (
        "no path from corner pair {} to corner pair {} in A_k + B_k".format(*unreachable)
    )
    checks = {
        "a_essential": {"ok": True, "detail": "no zero row or column in A"},
        "b_essential": {"ok": True, "detail": "no zero row or column in B"},
        "ab_commute": {"ok": True, "detail": "AB = BA entrywise"},
        "kappa_valid": {
            "ok": True, "detail": "endpoint-preserving bijection on composable pairs"
        },
        "transition_commute": {"ok": True, "detail": "A_k B_k = B_k A_k entrywise"},
        "h_essential": {"ok": True, "detail": "block matrix has no zero row or column"},
        "h_condition_I": {
            "ok": True, "detail": "every cycle of the block matrix has an exit"
        },
        "irreducible": {"ok": transitive, "detail": transitive_detail},
        "transitive": {"ok": transitive, "detail": transitive_detail},
        "diagonal_property": {
            "ok": True, "detail": "diagonal tile pairs admit at most one completion"
        },
        "simplicity_criterion": {
            "ok": transitive,
            "detail": "irreducibility + condition (I): the matrix conditions certifying "
            "a simple purely infinite Cuntz-Krieger algebra",
        },
    }
    kgroups = _kgroups_payload(sys_)
    report = {"system": _system_payload(sys_), "checks": checks, "kgroups": kgroups}
    return report, kgroups["block_matrix_cross_check"]


def _system_payload(sys_):
    return {
        "vertices": sys_.graph_a.vertex_count,
        "edges_a": len(sys_.graph_a.edges),
        "edges_b": len(sys_.graph_b.edges),
        "tiles": len(sys_.tiles),
        "corner_pairs": len(sys_.omega),
    }


def _render(report, pretty):
    if not pretty:
        return _json(report, "\n") + "\n"
    return "\n".join(_pretty_lines(report, 0)) + "\n"


def _json(value, pad):
    """``json.dumps(value, indent=2)``, which indents in pure Python, with less work: for
    str-keyed dicts, lists, tuples, str, int, bool and None, else TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):  # _quote refuses a key that is not a str
        items, brackets = [_quote(k) + ": " + _json(v, inner) for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _is_scalar_list(value):
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _pretty_lines(value, indent):
    """A dict's items labelled ``key:`` and a list's labelled ``-``, nesting indented."""
    pad = "  " * indent
    if isinstance(value, dict):
        labelled = [(f"{key}:", item) for key, item in value.items()]
    elif isinstance(value, list):
        labelled = [("-", item) for item in value]
    else:
        return [pad + _pretty_scalar(value)]
    lines = []
    for label, item in labelled:
        if isinstance(item, (dict, list)) and not _is_scalar_list(item):
            lines += [pad + label, *_pretty_lines(item, indent + 1)]
        else:
            lines.append(f"{pad}{label} {_pretty_scalar(item)}")
    return lines


def _pretty_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[" + ", ".join(_pretty_scalar(x) for x in value) + "]"
    return str(value)


def _report_system(args):
    """The parsed system, refused before any work if --emit-matrices is past its limit."""
    sys_ = _parse_system(_load_payload(args.input))
    n = len(sys_.omega)
    if args.emit_matrices and n > MAX_EMITTED:
        raise InputError(f"--emit-matrices allows at most {MAX_EMITTED} corner pairs, got {n}")
    return sys_


def _with_matrices(report, sys_, args):
    """A check or kgroups report, with the transition matrices if asked."""
    if args.emit_matrices:
        report["matrices"] = {
            "a_kappa": sys_.a_kappa.to_lists(),
            "b_kappa": sys_.b_kappa.to_lists(),
            "h_kappa": sys_.h_kappa.to_lists(),
        }
    return report


def cmd_check(args):
    sys_ = _report_system(args)
    report, ok = _check_payload(sys_)
    return _with_matrices(report, sys_, args), ok


def cmd_kgroups(args):
    sys_ = _report_system(args)
    kgroups = _kgroups_payload(sys_)
    report = {"system": _system_payload(sys_), "kgroups": kgroups}
    return _with_matrices(report, sys_, args), kgroups["block_matrix_cross_check"]


def cmd_closedform(args):
    comparison = verify_closed_form(args.N, args.M)
    closed = comparison.closed
    report = {
        "N": args.N,
        "M": args.M,
        "closed_form": {
            "summands": list(closed.summands),
            "k0": _group_payload(closed.canonical),
            "k1": _group_payload(closed.k1),
            "g": closed.g,
            "euclid": {
                "m": closed.trace.m,
                "n": closed.trace.n,
                "quotients": list(closed.trace.quotients),
                "remainders": list(closed.trace.remainders),
                "gcd": closed.trace.gcd,
                "divisible": closed.trace.divisible,
            },
        },
        "pipeline": {
            "k0": _group_payload(comparison.computed.k0),
            "k1": _group_payload(comparison.computed.k1),
        },
        "agree": comparison.agree,
    }
    return report, comparison.agree


def cmd_sweep(args):
    if args.NMAX < 2 or args.MMAX < 2:
        raise InputError("sweep bounds must be at least 2")
    essential_graphs([[min(args.NMAX, args.MMAX)]], [[args.MMAX]])  # the largest pair's size
    rows = []
    all_agree = True
    for n in range(2, args.NMAX + 1):
        for m in range(n, args.MMAX + 1):
            comparison = verify_closed_form(n, m)
            all_agree = all_agree and comparison.agree
            rows.append(
                {
                    "N": n,
                    "M": m,
                    "k0": str(comparison.computed.k0),
                    "invariant_factors": list(comparison.computed.k0.torsion),
                    "agree": comparison.agree,
                }
            )
    report = {"n_max": args.NMAX, "m_max": args.MMAX, "rows": rows, "all_agree": all_agree}
    return report, all_agree


def cmd_tiles(args):
    sys_ = _parse_system(_load_payload(args.input))
    tiles = [
        {
            "index": i,
            "top": list(t.top.key),
            "right": list(t.right.key),
            "left": list(t.left.key),
            "bottom": list(t.bottom.key),
        }
        for i, t in enumerate(sys_.tiles)
    ]
    return {"system": _system_payload(sys_), "tiles": tiles}, True


def cmd_witness(args):
    sys_ = _parse_system(_load_payload(args.input))
    max_steps = args.max_steps if args.max_steps is not None else 2 * len(sys_.omega)
    witness = witness_path(sys_, args.TILE, args.TILE2, max_steps)
    report = {"start": args.TILE, "target": args.TILE2, "max_steps": max_steps}
    report["found"] = witness is not None
    if witness is not None:
        report["witness"] = dict(zip(("moves", "tiles", "end_position"), map(list, witness)))
    return report, True


def cmd_corpus(args):
    entries = standard_corpus(seed=args.seed, circulant_pairs=args.count)
    systems = []
    all_ok = True
    for entry in entries:
        report, ok = _check_payload(entry.system)
        all_ok = all_ok and ok
        systems.append(
            {
                "label": entry.label,
                "corner_pairs": report["system"]["corner_pairs"],
                "structural_ok": True,
                "transitive": report["checks"]["transitive"]["ok"],
                "k0": report["kgroups"]["k0"]["text"],
                "block_matrix_cross_check": report["kgroups"]["block_matrix_cross_check"],
            }
        )
    report = {
        "seed": args.seed,
        "count": len(entries),
        "systems": systems,
        "all_ok": all_ok,
    }
    return report, all_ok


@functools.cache
def build_parser():
    """The one argument parser, built on first call; each cmd_* looks up its helpers when run."""
    parser = argparse.ArgumentParser(
        prog="cktiles",
        description="Tile systems from commuting matrices and their Cuntz-Krieger K-theory.",
        epilog="exit codes: 0 ok, 1 check/comparison failed, 2 parse error, "
        "3 input error, 4 commutation error, 5 invalid specification",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="aligned text instead of JSON")
    with_input = argparse.ArgumentParser(add_help=False)
    with_input.add_argument(
        "input", nargs="?", default=None,
        help="path to a system JSON document (default: standard input)",
    )
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument(
        "--emit-matrices", action="store_true", help="include transition matrices in the report"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, with_input, emit],
                       help="build a system and run every structural check")
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("kgroups", parents=[common, with_input, emit],
                       help="compute K0 and K1 with the block-matrix cross-check")
    p.set_defaults(func=cmd_kgroups)
    p = sub.add_parser("closedform", parents=[common],
                       help="closed-form K-groups for the exchange system on [N], [M]")
    p.add_argument("N", type=int)
    p.add_argument("M", type=int)
    p.set_defaults(func=cmd_closedform)
    p = sub.add_parser("sweep", parents=[common],
                       help="compare closed form and pipeline for all 2 <= N <= M in range")
    p.add_argument("NMAX", type=int)
    p.add_argument("MMAX", type=int)
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser("tiles", parents=[common, with_input],
                       help="list the tile set with edge identifiers")
    p.set_defaults(func=cmd_tiles)
    p = sub.add_parser("witness", parents=[common],
                       help="search a staircase witness between two tiles (by index)")
    p.add_argument("TILE", type=int)
    p.add_argument("TILE2", type=int)
    p.add_argument(
        "input", nargs="?", default=None,
        help="path to a system JSON document (default: standard input)",
    )
    p.add_argument("--max-steps", type=int, default=None, metavar="K")
    p.set_defaults(func=cmd_witness)
    p = sub.add_parser("corpus", parents=[common],
                       help="run all checks over the deterministic commuting-pair corpus")
    p.add_argument("--count", type=int, default=20, help="number of random circulant pairs")
    p.add_argument("--seed", type=int, default=1302, help="seed for corpus generation")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None):
    """Run one subcommand; each cmd_* returns (report, ok), and ok maps to exit 0 or 1."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and args.command == "witness" and args.input is None and (
        extra[0] == "-" or extra[0][:1] != "-"
    ):
        args.input = extra.pop(0)  # argparse leaves it empty when --max-steps follows TILE2
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        report, ok = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CommutationError as exc:
        print(f"commutation error: {exc}", file=sys.stderr)
        return EXIT_COMMUTATION
    except SpecificationError as exc:
        print(f"invalid specification: {exc}", file=sys.stderr)
        return EXIT_KAPPA
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("input error: out of memory: the system is too large to finish", file=sys.stderr)
        return EXIT_INPUT
    print(_render(report, args.pretty), end="")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
