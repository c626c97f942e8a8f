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
import json
import sys

from .closedform import verify_closed_form
from .corpus import standard_corpus
from .errors import CommutationError, InputError, SpecificationError
from .graph import graph_from_matrix, is_essential, satisfies_condition_I, unreachable_pair
from .ktheory import block_matrix_k0, group_equal, kgroups_of_system
from .textile import (
    Specification,
    build_system,
    canonical_specification,
    check_commutation,
    exchange_specification,
    require_commuting,
)
from .tiling import check_diagonal_property, find_transitivity_witness, is_transitive_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_COMMUTATION = 4
EXIT_KAPPA = 5


class ParseError(ValueError):
    pass


def _load_payload(path):
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("input must be a JSON object")
    return payload


def _require_matrix(payload, name):
    value = payload.get(name)
    if not isinstance(value, list) or not value or not all(
        isinstance(row, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        for row in value
    ):
        raise ParseError(f'field "{name}" must be a nonempty list of integer rows')
    return value


def _edge_from_id(graph, value):
    if not (isinstance(value, list) and len(value) == 3 and all(isinstance(x, int) for x in value)):
        raise ParseError(f"edge identifiers must be [source, range, index] triples, got {value!r}")
    return graph.edge_by_key(tuple(value))


def _parse_system(payload):
    matrix_a = _require_matrix(payload, "A")
    matrix_b = _require_matrix(payload, "B")
    kappa_field = payload.get("kappa", "canonical")
    ga = graph_from_matrix(matrix_a, "A")
    gb = graph_from_matrix(matrix_b, "B")
    for name, matrix in (("A", matrix_a), ("B", matrix_b)):
        if not is_essential(matrix):
            raise InputError(f"matrix {name} is not essential: it has a zero row or column")
    require_commuting(ga, gb)
    if kappa_field == "canonical":
        kappa = canonical_specification(ga, gb)
    elif kappa_field == "exchange":
        if ga.vertex_count != 1:
            raise InputError('kappa "exchange" requires 1x1 matrices [[N]], [[M]]')
        kappa = exchange_specification(matrix_a[0][0], matrix_b[0][0])
    elif isinstance(kappa_field, list):
        domain = []
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
            domain.append(pair)
            mapping[pair] = image
        kappa = Specification(domain=tuple(domain), mapping=mapping)
    else:
        raise ParseError('field "kappa" must be "canonical", "exchange" or a list of entries')
    return build_system(ga, gb, kappa)


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
        "block_matrix_cross_check": group_equal(groups.k0, k0_from_block),
    }


def _check_payload(sys_):
    checks = {}
    a_matrix = sys_.graph_a.to_matrix()
    b_matrix = sys_.graph_b.to_matrix()
    checks["a_essential"] = {
        "ok": is_essential(a_matrix), "detail": "no zero row or column in A"
    }
    checks["b_essential"] = {
        "ok": is_essential(b_matrix), "detail": "no zero row or column in B"
    }
    checks["ab_commute"] = {"ok": True, "detail": "AB = BA entrywise"}
    checks["kappa_valid"] = {
        "ok": True, "detail": "endpoint-preserving bijection on composable pairs"
    }
    commute = check_commutation(sys_)
    checks["transition_commute"] = {
        "ok": commute, "detail": "A_k B_k = B_k A_k entrywise"
    }
    h_essential = is_essential(sys_.h_kappa)
    checks["h_essential"] = {
        "ok": h_essential, "detail": "block matrix has no zero row or column"
    }
    condition_i = satisfies_condition_I(sys_.h_kappa) if h_essential else False
    checks["h_condition_I"] = {
        "ok": condition_i, "detail": "every cycle of the block matrix has an exit"
    }
    transitive = is_transitive_matrix(sys_)
    if transitive:
        transitive_detail = "A_k + B_k is irreducible"
    else:
        p, q = unreachable_pair(sys_.a_kappa + sys_.b_kappa)
        transitive_detail = (
            f"no path from corner pair {p} to corner pair {q} in A_k + B_k"
        )
    checks["irreducible"] = {"ok": transitive, "detail": transitive_detail}
    checks["transitive"] = {"ok": transitive, "detail": transitive_detail}
    diagonal = check_diagonal_property(sys_)
    checks["diagonal_property"] = {
        "ok": diagonal.ok,
        "detail": "diagonal tile pairs admit at most one completion"
        if diagonal.ok
        else f"pair {diagonal.pair!r} admits {len(diagonal.completions)} completions",
    }
    checks["simplicity_criterion"] = {
        "ok": transitive and condition_i,
        "detail": "irreducibility + condition (I): the matrix conditions certifying "
        "a simple purely infinite Cuntz-Krieger algebra",
    }
    report = {
        "system": _system_payload(sys_),
        "checks": checks,
        "kgroups": _kgroups_payload(sys_),
    }
    structural = [
        "a_essential", "b_essential", "ab_commute", "kappa_valid",
        "transition_commute", "h_essential", "h_condition_I", "diagonal_property",
    ]
    all_ok = all(checks[name]["ok"] for name in structural)
    return report, all_ok


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
        return json.dumps(report, indent=2) + "\n"
    return "\n".join(_pretty_lines(report, 0)) + "\n"


def _is_scalar_list(value):
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _pretty_lines(value, indent):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and not _is_scalar_list(item):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_pretty_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and not _is_scalar_list(item):
                lines.append(f"{pad}-")
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_pretty_scalar(item)}")
    else:
        lines.append(f"{pad}{_pretty_scalar(value)}")
    return lines


def _pretty_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[" + ", ".join(_pretty_scalar(x) for x in value) + "]"
    return str(value)


def _print_system_report(report, sys_, args):
    """Print a check or kgroups report, with the transition matrices if asked."""
    if args.emit_matrices:
        report["matrices"] = {
            "a_kappa": sys_.a_kappa.to_lists(),
            "b_kappa": sys_.b_kappa.to_lists(),
            "h_kappa": sys_.h_kappa.to_lists(),
        }
    print(_render(report, args.pretty), end="")


def cmd_check(args):
    sys_ = _parse_system(_load_payload(args.input))
    report, all_ok = _check_payload(sys_)
    _print_system_report(report, sys_, args)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_kgroups(args):
    sys_ = _parse_system(_load_payload(args.input))
    report = {
        "system": _system_payload(sys_),
        "kgroups": _kgroups_payload(sys_),
    }
    _print_system_report(report, sys_, args)
    return EXIT_OK


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
    print(_render(report, args.pretty), end="")
    return EXIT_OK if comparison.agree else EXIT_CHECK_FAILED


def cmd_sweep(args):
    if args.NMAX < 2 or args.MMAX < 2:
        raise InputError("sweep bounds must be at least 2")
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
    print(_render(report, args.pretty), end="")
    return EXIT_OK if all_agree else EXIT_CHECK_FAILED


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
    report = {"system": _system_payload(sys_), "tiles": tiles}
    print(_render(report, args.pretty), end="")
    return EXIT_OK


def cmd_witness(args):
    sys_ = _parse_system(_load_payload(args.input))
    count = len(sys_.tiles)
    for value in (args.TILE, args.TILE2):
        if not 0 <= value < count:
            raise InputError(f"tile index {value} out of range 0..{count - 1}")
    max_steps = args.max_steps if args.max_steps is not None else 2 * len(sys_.omega)
    start = sys_.tiles[args.TILE]
    target = sys_.tiles[args.TILE2]
    witness = find_transitivity_witness(sys_, start, target, max_steps)
    tile_index = {t: i for i, t in enumerate(sys_.tiles)}
    report = {
        "start": args.TILE,
        "target": args.TILE2,
        "max_steps": max_steps,
        "found": witness is not None,
    }
    if witness is not None:
        report["witness"] = {
            "moves": list(witness.moves),
            "tiles": [tile_index[t] for t in witness.tiles],
            "end_position": list(witness.end_position),
        }
    print(_render(report, args.pretty), end="")
    return EXIT_OK


def cmd_corpus(args):
    entries = standard_corpus(seed=args.seed, circulant_pairs=args.count)
    systems = []
    all_ok = True
    for entry in entries:
        report, ok = _check_payload(entry.system)
        all_ok = all_ok and ok and report["kgroups"]["block_matrix_cross_check"]
        systems.append(
            {
                "label": entry.label,
                "corner_pairs": report["system"]["corner_pairs"],
                "structural_ok": ok,
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
    print(_render(report, args.pretty), end="")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser():
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
    with_input.add_argument(
        "--emit-matrices", action="store_true", help="include transition matrices in the report"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, with_input],
                       help="build a system and run every structural check")
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("kgroups", parents=[common, with_input],
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
