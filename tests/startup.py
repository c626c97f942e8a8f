"""What a CLI call costs in a fresh process, over a bare interpreter.

    python3 tests/startup.py [--spawns K] [--src DIR ...]

Each of K rounds spawns, in turn, a bare interpreter (``-c pass``) and then,
for each package, ``import cktiles.cli``, ``cktiles closedform 2 3`` and
``cktiles kgroups`` on exchange(2, 3), so drift on a shared machine falls on
all of them alike.  A package is a copy of DIR/cktiles; ``--src`` defaults to
this repository's ``src`` and may be repeated to compare checkouts in the
same rounds.  The rounds run twice: with bytecode cached, each copy compiled
first, and uncached, with no ``__pycache__`` and PYTHONDONTWRITEBYTECODE=1,
so every spawn compiles the package.  It prints, per command, the median
wall time and the median over the bare interpreter of the same round.
Every spawn runs with ``-S``, so no ``.pth`` file in site-packages preloads
modules into the bare interpreter that the package would otherwise pay for;
the package is found through PYTHONPATH.

Standard library only; pytest does not collect it.
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BARE = ["-c", "pass"]
CALL = "from cktiles.cli import entry; entry()"  # what the installed `cktiles` script runs
COMMANDS = {
    "import cktiles.cli": ["-c", "import cktiles.cli"],
    "closedform 2 3": ["-c", CALL, "closedform", "2", "3"],
    "kgroups exchange(2,3)": ["-c", CALL, "kgroups", "{document}"],
}


def _spawn(args, env):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", *args], env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def measure(packages, document, spawns, cached):
    """Seconds per round: the bare interpreter's list, and {(package index, command): list}."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")
    }
    if cached:
        for package in packages:
            compileall.compile_dir(package, quiet=1)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    runs = [
        (k, name, dict(env, PYTHONPATH=str(package.parent)),
         [arg.format(document=document) for arg in args])
        for k, package in enumerate(packages) for name, args in COMMANDS.items()
    ]
    bare, times = [], {(k, name): [] for k, name, _, _ in runs}
    for _ in range(spawns):
        bare.append(_spawn(BARE, env))
        for k, name, package_env, args in runs:
            times[k, name].append(_spawn(args, package_env))
    return bare, times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawns", type=int, default=15, help="alternated rounds per mode")
    parser.add_argument(
        "--src", type=Path, action="append",
        help="directory that holds a cktiles package to time; repeat to compare several",
    )
    args = parser.parse_args(argv)
    if args.spawns < 1:
        parser.error("--spawns must be at least 1")
    sources = args.src or [Path(__file__).resolve().parents[1] / "src"]
    print(f"python {sys.version.split()[0]}, {args.spawns} alternated spawns per command")
    for k, src in enumerate(sources):
        print(f"[{k}] {src}")
    print(f"{'bytecode':<10}{'command':<28}{'median ms':>10}{'over bare ms':>14}")
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp, "exchange-2-3.json")
        document.write_text('{"A": [[2]], "B": [[3]], "kappa": "exchange"}\n')
        for mode in ("cached", "uncached"):
            packages = [Path(tmp, mode, str(k), "cktiles") for k in range(len(sources))]
            for src, package in zip(sources, packages):
                skip = shutil.ignore_patterns("__pycache__")
                shutil.copytree(src / "cktiles", package, ignore=skip)
            bare, times = measure(packages, document, args.spawns, mode == "cached")
            print(f"{mode:<10}{'bare interpreter':<28}{statistics.median(bare) * 1e3:>10.1f}")
            for (k, name), spawned in times.items():
                median = statistics.median(spawned)
                over = statistics.median(map(float.__sub__, spawned, bare))
                label = f"[{k}] {name}"
                print(f"{mode:<10}{label:<28}{median * 1e3:>10.1f}{over * 1e3:>14.1f}")


if __name__ == "__main__":
    main()
