"""Structured verification reports.

Every suite run produces a report: one entry per identity checked, with a
stable id, a short anchor describing the identity, pass/fail status, wall
time, and on failure a serialized residual witness.
"""

from __future__ import annotations

from typing import NamedTuple

SCHEMA_VERSION = "1"


class ReportEntry(NamedTuple):
    id: str
    anchor: str
    status: str  # "pass" | "fail"
    residual: str | None = None
    wall_time: float = 0.0

    def to_json_obj(self) -> dict:
        return self._asdict()


class VerificationReport:
    __slots__ = ("mode", "genus", "seed", "entries")

    def __init__(self, mode: str, genus: list[int], seed: int | None = None):
        self.mode = mode
        self.genus = genus
        self.seed = seed
        self.entries: list[ReportEntry] = []

    def add(self, entry: ReportEntry):
        if any(e.id == entry.id for e in self.entries):
            raise ValueError(f"duplicate report entry id {entry.id!r}")
        self.entries.append(entry)

    def sort(self):
        self.entries.sort(key=lambda e: e.id)

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.status != "pass"]

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "genus": self.genus,
            "seed": self.seed,
            "passed": self.passed,
            "entries": [e.to_json_obj() for e in self.entries],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.status == "pass" else "FAIL"
            lines.append(f"{status}  {e.id}  ({e.wall_time:.3f}s)  {e.anchor}")
            if e.status != "pass" and e.residual:
                lines.append(f"      residual: {e.residual}")
        n_fail = len(self.failures())
        lines.append(
            f"{len(self.entries)} checks, "
            + ("all passed" if n_fail == 0 else f"{n_fail} FAILED")
        )
        return "\n".join(lines) + "\n"


def schema_text() -> str:
    from importlib import resources

    return (
        resources.files("hyperlie").joinpath("schemas/report.schema.json").read_text()
    )
