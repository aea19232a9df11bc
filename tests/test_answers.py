"""The answer ledger: every recorded output of every seeded input holds.

``answers.json`` keeps one record per input; ``record_answers.py`` writes
it and says what each field holds.  Each test rebuilds one input's graph
from its record and compares every field, so a failure names the input
and the field that moved.
"""

import json

import pytest

from pauvc import Graph
from record_answers import LEDGER, SOLVE_MAX_N, answers, cases

RECORDS = json.loads(LEDGER.read_text())


def test_ledger_covers_every_family():
    families = {r["input"].split("(")[0] for r in RECORDS}
    assert families == {
        "gnp", "bipartite_part", "random_union", "build_gc",
        "build_bipartite_gadget", "random_tree",
    }
    assert sum("solve/mixed/fpt" in r for r in RECORDS) >= 100


def test_ledger_holds_the_recorders_inputs():
    # The other tests rebuild each graph from its record; this one checks
    # that the records are the recorder's inputs, in order, each solved
    # where the recorder solves it.
    want = [(name, g.n, [list(e) for e in g.edges()], solved)
            for name, g, solved in cases()]
    got = [(r["input"], r["n"], r["edges"], "solve/include/auto" in r)
           for r in RECORDS]
    assert got == want


@pytest.mark.parametrize("record", RECORDS, ids=[r["input"] for r in RECORDS])
def test_answers_unchanged(record):
    g = Graph(record["n"], [tuple(e) for e in record["edges"]])
    got = answers(g, g.n <= SOLVE_MAX_N or "solve/include/auto" in record)
    recorded = {k: v for k, v in record.items() if k not in ("input", "n", "edges")}
    assert got.keys() == recorded.keys(), f"{record['input']}: fields differ"
    for field, value in recorded.items():
        assert got[field] == value, (
            f"{record['input']}: {field} was {value}, is {got[field]}"
        )
