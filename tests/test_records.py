"""Records are namedtuple subclasses: what a tuple base must not change.

Importing the CLI loads none of ``dataclasses``, ``inspect`` or ``typing``; a
failed report is false although a nonempty tuple is true; the validating
records refuse bad fields, through ``_replace`` too; and the reprs that reach
output name every field as ``Class(field=value, ...)``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cktiles.closedform import euclid_trace
from cktiles.errors import InputError, InternalCheckError
from cktiles.graph import graph_from_matrix
from cktiles.ktheory import AbelianGroup, KGroups
from cktiles.textile import (
    Specification, Tile, ValidationReport, exchange_specification, exchange_system,
    validate_specification,
)
from cktiles.tiling import DiagonalPropertyResult, diagonal_property_of_tiles

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S: a .pth file in site-packages may import typing before any package does
    code = (
        "import cktiles.cli, sys; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_failed_reports_are_false_and_passed_ones_true():
    assert not ValidationReport(ok=False, failure="not-injective")
    assert ValidationReport(ok=True)
    assert not DiagonalPropertyResult(ok=False, pair=(1, 2), completions=((3, 4), (5, 6)))
    assert DiagonalPropertyResult(ok=True)
    ga, gb = graph_from_matrix([[2]], "A"), graph_from_matrix([[2]], "B")
    kappa = exchange_specification(ga, gb)
    short = Specification(domain=kappa.domain[:-1], mapping=kappa.mapping)
    assert validate_specification(kappa, ga, gb)
    assert not validate_specification(short, ga, gb)
    tiles = list(exchange_system(2, 2).tiles)
    first = tiles[0]
    other = next(t.bottom for t in tiles if t.bottom != first.bottom)
    assert diagonal_property_of_tiles(tiles)
    assert not diagonal_property_of_tiles(tiles + [first._replace(bottom=other)])


def test_validating_records_still_refuse_bad_fields():
    assert AbelianGroup(free_rank=1, torsion=[2, 4]).torsion == (2, 4)
    assert AbelianGroup(2) == AbelianGroup(free_rank=2, torsion=())
    for torsion in ((1,), (2, 3), (4, 2), [6, -6]):
        with pytest.raises(InputError):
            AbelianGroup(0, torsion)
    free, torsion = AbelianGroup(1), AbelianGroup(0, (2,))
    assert KGroups(k0=torsion, k1=free).k1 is free
    with pytest.raises(InternalCheckError):
        KGroups(free, torsion)
    with pytest.raises(InternalCheckError):
        KGroups(k0=free, k1=torsion)
    with pytest.raises(InputError):  # _replace builds through the checks too
        torsion._replace(torsion=(2, 3))
    with pytest.raises(InternalCheckError):
        KGroups(torsion, free)._replace(k1=torsion)
    ga = graph_from_matrix([[2]], "A")
    assert ga._replace(label="C").edge_by_key((1, 1, 2)) is ga.edges[1]


def test_reprs_name_every_field():
    group = AbelianGroup(1, (2, 4))
    assert repr(group) == "AbelianGroup(free_rank=1, torsion=(2, 4))"
    assert str(group) == "Z + Z/2Z + Z/4Z"
    assert repr(KGroups(group, AbelianGroup(2))) == (
        "KGroups(k0=AbelianGroup(free_rank=1, torsion=(2, 4)), "
        "k1=AbelianGroup(free_rank=2, torsion=()))"
    )
    assert repr(euclid_trace(7, 3)) == (
        "EuclidTrace(m=7, n=3, quotients=(2, 3), remainders=(1,), gcd=1, divisible=False)"
    )
    ga, gb = graph_from_matrix([[2]], "A"), graph_from_matrix([[1, 1], [0, 1]], "B")
    assert repr(ga) == "DirectedMultigraph(vertex_count=1, edges=(A(1,1)#1, A(1,1)#2), label='A')"
    assert repr(gb) == (
        "DirectedMultigraph(vertex_count=2, edges=(B(1,1)#1, B(1,2)#1, B(2,2)#1), label='B')"
    )
    alpha, b = ga.edges[0], graph_from_matrix([[3]], "B").edges[2]
    kappa = Specification(domain=((alpha, b),), mapping={(alpha, b): (b, alpha)})
    assert repr(kappa) == (
        "Specification(domain=((A(1,1)#1, B(1,1)#3),), "
        "mapping={(A(1,1)#1, B(1,1)#3): (B(1,1)#3, A(1,1)#1)})"
    )
    assert repr(ValidationReport(ok=False, failure="f", detail="d")) == (
        "ValidationReport(ok=False, failure='f', detail='d', pair=None)"
    )


def test_records_are_tuples_of_their_fields_and_their_fields_are_read_only():
    group = AbelianGroup(0, (3,))
    assert group == (0, (3,)) and hash(group) == hash((0, (3,)))
    ga = graph_from_matrix([[2]], "A")
    assert ga == (1, ga.edges, "A")  # the edge lookups stay out of equality
    assert ga.position(ga.edges[1]) == 1
    tile = exchange_system(2, 2).tiles[0]
    assert Tile(*tile) == tile
    for record, field in ((group, "torsion"), (ga, "edges"), (tile, "top")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        group.extra = 1  # no instance dict
