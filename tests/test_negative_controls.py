"""Negative controls for the claim runner.

For each kind of residual a claim can yield (a Poly, a Derivation, a number,
a problem string) one reference datum is perturbed.  Exactly the entry that
reads it must fail, in exact and in pit mode, with a witness in that kind's
format, while every other genus-1 and genus-2 entry still passes.
"""

import re
from fractions import Fraction
from itertools import combinations

import pytest

from hyperlie import Derivation, reference
from hyperlie.suite import PitConfig, SuiteContext, _decide, run_suite


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


def _three_bracket_jacobi(ctx, mode, pit, rng):
    """The genus's Jacobi claim stated with three brackets and two
    derivation sums per triple, as a reference for the fused kernel."""
    names = ctx.cat.names
    fields = [ctx.cat.fields[n] for n in names]
    pair = {
        (a, b): fields[a].bracket(fields[b])
        for a, b in combinations(range(len(fields)), 2)
    }
    for a, b, c in combinations(range(len(fields)), 3):
        A, B, C = fields[a], fields[b], fields[c]
        res = A.bracket(pair[b, c]) - B.bracket(pair[a, c]) + C.bracket(pair[a, b])
        yield f"jacobi({names[a]},{names[b]},{names[c]})", res


def test_perturbed_pair_bracket_fails_jacobi(monkeypatch):
    """[L1,L2] gains x2*d/dx2; the Jacobi entry must fail in both modes, and
    its exact witness must be the one the three-bracket form gives."""
    bracket = Derivation.bracket

    def perturbed(self, other):
        out = bracket(self, other)
        if (self.name, other.name) == ("L1", "L2"):
            out = out + Derivation("E", self.ring, {"x2": self.ring.var("x2")})
        return out

    monkeypatch.setattr(Derivation, "bracket", perturbed)
    witness = {}
    for mode in ("exact", "pit"):
        report = run_suite(2, mode, PitConfig(seed=1))
        witness[mode] = {e.id: e.residual for e in report.failures()}.get("g2.fields.jacobi")
        assert witness[mode] is not None, mode
    assert re.match(r"jacobi\(L\d,L\d,L\d\)\.\w+ at \{.*\} -> -?\d", witness["pit"])
    ok, want = _decide(_three_bracket_jacobi, (), SuiteContext(2), "exact", PitConfig(), None)
    assert not ok
    assert witness["exact"] == want


def test_corrupted_genus3_table_row_keeps_its_witness(monkeypatch):
    """The genus-3 [L3,L4] row as the benchmark's negative control corrupts
    it: only its table entry fails, with the witness of the first nonzero
    residual component."""
    monkeypatch.setitem(_table_row(3, "L3", "L4")[2], "L3", "y4 - 2*l4")  # displayed: y4 - l4
    failures = {e.id: e.residual for e in run_suite(3, "exact").failures()}
    assert failures == {
        "g3.fields.table.L3_L4": "[L3,L4].x2: -3*x2^2*y5 + 1/2*x4*y5 - 2*y4*y5",
    }
