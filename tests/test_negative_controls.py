"""Negative controls for the claim runner.

For each kind of residual a claim can yield (a Poly, a Derivation, a number,
a problem string) one reference datum is perturbed.  Exactly the entry that
reads it must fail, in exact and in pit mode, with a witness in that kind's
format, while every other genus-1 and genus-2 entry still passes.
"""

import re
from fractions import Fraction

import pytest

from hyperlie import reference
from hyperlie.suite import PitConfig, run_suite


def _table_row(genus, left, right):
    return next(r for r in reference.BRACKET_TABLE[genus] if r[:2] == (left, right))


# kind: (entry id, perturbation, {mode: witness pattern})
CONTROLS = {
    "poly": (
        "g1.map.components_match",
        # displayed: -3*x2^2 + 1/2*x4
        lambda mp: mp.setitem(reference.MAP[1], "l4", "-2*x2^2 + 1/2*x4"),
        {"exact": r"l4: \S", "pit": r"l4 at \{.*\} -> -?\d"},
    ),
    "derivation": (
        "g2.fields.table.L1_L2",
        # displayed: x2
        lambda mp: mp.setitem(_table_row(2, "L1", "L2")[2], "L1", "2*x2"),
        {"exact": r"\[L1,L2\]\.\w+: \S", "pit": r"\[L1,L2\]\.\w+ at \{.*\} -> -?\d"},
    ),
    "number": (
        "g1.params.detT_eq_cR",
        # displayed: -4/3
        lambda mp: mp.setitem(reference.DETT_R_CONSTANT, 1, Fraction(-5, 3)),
        {"exact": r"detT - c\*R: \S", "pit": r"detT - c\*R at \{.*\} -> -?\d"},
    ),
    "problem": (
        "g1.fields.classical_table",
        # displayed: P2
        lambda mp: mp.setitem(reference.CLASSICAL_TABLE[1][0][2], "L1", "2*P2"),
        {"exact": r"\[L1,L2\] on \w+: \S", "pit": r"\[L1,L2\] on \w+: \S"},
    ),
}


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("kind", list(CONTROLS))
def test_perturbed_datum_fails_only_its_entry(monkeypatch, kind, mode):
    entry_id, perturb, witness = CONTROLS[kind]
    perturb(monkeypatch)
    failures = {
        e.id: e.residual
        for g in (1, 2)
        for e in run_suite(g, mode, PitConfig(seed=1)).failures()
    }
    assert list(failures) == [entry_id]
    assert re.match(witness[mode], failures[entry_id], re.S), failures[entry_id]
