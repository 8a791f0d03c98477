"""Record the answers the benchmark holds the program to.

    python3 perfbench/freeze.py

Writes ``perfbench/expected.json`` from the current sources: the report
entry ids of each genus and the sha256 of every export's output.  The file
was made at the commit that introduced the benchmark, whose suite passes
every entry.  Run this again only in a change that means to alter those
outputs, and say in that change why they differ.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from run import BENCH, EXPORTS, ROOT, WORKLOADS, child_env, export_key, spawn


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from hyperlie.suite import suite_entries

    env = child_env()
    out = BENCH / "out" / "freeze.stdout"
    out.parent.mkdir(exist_ok=True)
    digests = {}
    for args, key in zip(WORKLOADS["export-all"](0), (export_key(*e) for e in EXPORTS)):
        res = spawn([sys.executable, "-m", "hyperlie.cli", *args], out, env)
        if res["rc"] != 0:
            print(f"error: {' '.join(args)} exited {res['rc']}", file=sys.stderr)
            return 1
        digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    expected = {
        "entry_ids": {str(g): [e[0] for e in suite_entries(g)] for g in (1, 2, 3)},
        "export_sha256": digests,
    }
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
