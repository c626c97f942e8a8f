"""Record reference outputs for every op any seed can draw.

    python3 perfbench/record.py            # rewrites perfbench/reference.json

Run once, at the commit whose outputs are the reference; every later run
is checked against the file.  Each op is recorded with its exit code, the
SHA-256 of its stdout (or of a library result's JSON) and the number
of K-group computations it asks for, which the traced run divides by.
``src_sha256`` identifies the package source the file was recorded from.
"""

import hashlib
import json
import sys

from checks import REFERENCE
from harness import Runner, load_package
from run import ROOT
from workloads import WORKLOADS, pool


def kgroups_requested(op, outcome):
    """K-group computations an op asks for, by the documented command semantics."""
    if not op.is_cli or not op.valid or outcome.code not in (0, 1):
        return 0
    command = op.argv[0]
    if command in ("closedform", "check", "kgroups"):
        return 1
    if command == "corpus":
        return json.loads(outcome.text)["count"]
    return 0


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cktiles").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main():
    runner = Runner(load_package(ROOT))
    ops = {}
    for workload in WORKLOADS:
        members = pool(workload)
        runner.prepare(members)
        for op in members:
            _, raw = runner.execute(op)
            outcome = runner.record(op, raw, keep_text=True)
            entry = {"exit": outcome.code, "sha256": outcome.digest,
                     "kgroups": kgroups_requested(op, outcome)}
            if outcome.crash:
                entry["crash"] = outcome.crash
            ops[op.key] = entry
        print(f"{workload}: {len(members)} ops recorded", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as out:
        json.dump({"src_sha256": src_digest(), "ops": ops}, out, indent=0, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
