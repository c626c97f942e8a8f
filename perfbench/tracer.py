"""Outside-in tracer: spans around the package's public functions.

The package is not edited.  ``install`` replaces each traced function at
every place it is bound -- its own module, every module that imported it
(``cktiles.cli.cokernel``, ``cktiles.closedform.kgroups_of_system``,
``cktiles.tiling.is_irreducible``, ...) and the package namespace -- and
the traced ``IntMatrix`` methods on the class.  ``remove`` puts the
originals back.  Spans stay in memory as (op, function, start, end,
parent, work, bits) tuples and are written out when the run ends.
"""

import functools
import inspect

from harness import LAYERS, clock

# Public functions of the cli layer other than main are argument-parser
# plumbing; main is the layer's entry point, so its self time is the CLI's
# own parsing and rendering.
CLI_FUNCTIONS = ("main",)
MATRIX_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__matmul__", "transpose", "kron", "det")


def _cells(args, result):
    m = args[0]
    return m.rows * m.cols, 0


def _top_factor_bits(group):
    return group.torsion[-1].bit_length() if group.torsion else 0


def _cokernel(args, result):
    return _cells(args, result)[0], _top_factor_bits(result)


def _snf(args, result):
    return _cells(args, result)[0], max((abs(d).bit_length() for d in result.diagonal), default=0)


def _canonicalize(args, result):
    return len(args[0]), _top_factor_bits(result)


# work and bits recorded per span, by function: matrix cells diagonalised,
# summands canonicalised or materialised, tiles built; bits of the largest
# invariant factor returned.
NOTES = {
    "ktheory.cokernel": _cokernel,
    "ktheory.kernel_rank": _cells,
    "ktheory.smith_normal_form": _snf,
    "ktheory.canonicalize": _canonicalize,
    "closedform.closed_form_kgroups": lambda args, result: (len(result.summands), 0),
    "textile.build_system": lambda args, result: (len(result.tiles), 0),
}


def traced_functions(modules):
    """(span name, function) for every traced function."""
    found = []
    for layer in LAYERS:
        module = modules[layer]
        if layer == "matrices":
            cls = module.IntMatrix
            for name in MATRIX_METHODS:
                found.append((f"matrices.{name.strip('_')}", vars(cls)[name]))
            continue
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
                and (layer != "cli" or name in CLI_FUNCTIONS)
            ):
                found.append((f"{layer}.{name}", value))
    return found


class Tracer:
    """Records spans while installed; ``op`` is set by the harness before each op.

    The wrappers and the places they go are found once, so ``install`` and
    ``remove`` are cheap enough to toggle around single ops.
    """

    def __init__(self, modules):
        self.names = []
        self.spans = []
        self.op = -1
        self._stack = []
        wrappers = {}
        for name, fn in traced_functions(modules):
            fid = len(self.names)
            self.names.append(name)
            wrappers[id(fn)] = (fn, self._wrap(fid, fn, NOTES.get(name)))
        self._sites = []  # (target, attribute, original, wrapper)
        targets = list(modules.values()) + [modules["matrices"].IntMatrix]
        for target in targets:
            for attr, value in vars(target).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._sites.append((target, attr, value, hit[1]))

    def install(self):
        for target, attr, _, wrapper in self._sites:
            setattr(target, attr, wrapper)

    def remove(self):
        for target, attr, original, _ in self._sites:
            setattr(target, attr, original)

    def _wrap(self, fid, fn, note):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (tracer.op, fid, start, end, parent, 0, 0)
            if note is not None:
                work, bits = note(args, result)
                spans[index] = (tracer.op, fid, start, end, parent, work, bits)
            return result

        return traced

    def write(self, path, op_keys, origin):
        """Write every span as a tab-separated line; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\top\top_key\tname\tstart_s\tend_s\twork\tbits\n")
            for index, (op, fid, start, end, parent, work, bits) in enumerate(self.spans):
                out.write(
                    f"{index}\t{parent}\t{op}\t{op_keys[op % len(op_keys)]}\t{self.names[fid]}\t"
                    f"{start - origin:.9f}\t{end - origin:.9f}\t{work}\t{bits}\n"
                )


def summarize(tracer, ops, phase, kgroups_per_op):
    """Per-layer and per-function numbers of a traced phase.

    Self time is a span's duration less the time its child spans cover.
    Times, calls and counts are per pass over the op list, so runs of
    different lengths compare; the benchmark's own time is the traced wall
    time not inside any top-level span.
    """
    spans, names = tracer.spans, tracer.names
    passes = phase.passes
    child = [0.0] * len(spans)
    for op, fid, start, end, parent, work, bits in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fn_self = {}
    fn_calls = {}
    top = 0.0
    for index, (op, fid, start, end, parent, work, bits) in enumerate(spans):
        name = names[fid]
        layer = name.split(".", 1)[0]
        own = end - start - child[index]
        layer_calls[layer] += 1
        layer_self[layer] += own
        fn_self[name] = fn_self.get(name, 0.0) + own
        fn_calls[name] = fn_calls.get(name, 0) + 1
        if parent < 0:
            top += end - start

    def total(name, field):
        fid = names.index(name)
        return sum(s[field] for s in spans if s[1] == fid)

    diagonalisations = fn_calls.get("ktheory.cokernel", 0) + fn_calls.get("ktheory.kernel_rank", 0)
    kgroups = passes * sum(kgroups_per_op[op.key] for op in ops)
    bits_from = {names.index(n) for n in ("ktheory.cokernel", "ktheory.smith_normal_form", "ktheory.canonicalize")}
    search_fid = names.index("tiling.is_transitive_search")
    bfs_fid = names.index("tiling.find_transitivity_witness")
    searches = {}  # search span index -> BFS calls inside it
    for index, span in enumerate(spans):
        if span[1] == search_fid:
            searches.setdefault(index, 0)
        elif span[1] == bfs_fid:
            parent = span[4]
            while parent >= 0 and spans[parent][1] != search_fid:
                parent = spans[parent][4]
            if parent >= 0:
                searches[parent] = searches.get(parent, 0) + 1
    cells = sum(total(n, 5) for n in ("ktheory.cokernel", "ktheory.kernel_rank", "ktheory.smith_normal_form"))
    return {
        "wall": phase.wall / passes,
        "bench_self": (phase.wall - top) / passes,
        "layer_calls": {k: v / passes for k, v in layer_calls.items()},
        "layer_self": {k: v / passes for k, v in layer_self.items()},
        "fn_self": {k: v / passes for k, v in fn_self.items()},
        "fn_calls": {k: v / passes for k, v in fn_calls.items()},
        "diagonalisations_per_kgroups": diagonalisations / kgroups if kgroups else 0.0,
        "snf_cells": cells / passes,
        "max_factor_bits": max((s[6] for s in spans if s[1] in bits_from), default=0),
        "bfs_per_search": sum(searches.values()) / len(searches) if searches else 0.0,
        "searches": [(spans[i][0], bfs) for i, bfs in sorted(searches.items())],
        "tiles": total("textile.build_system", 5) / passes,
        "summands": total("closedform.closed_form_kgroups", 5) / passes,
    }
