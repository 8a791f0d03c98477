"""Command-line interface.

``hyperlie verify`` runs the identity suites and exits 0 only if everything
passes (1 on any verification failure, 2 on usage errors).  ``hyperlie
export`` renders the constructed objects as JSON or LaTeX on stdout.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys


# Each command imports only the modules it runs: ``export`` never loads the
# suite, and ``verify`` never loads the renderers.  The forwarders are module
# attributes, so tests can patch ``cli.run_suite``.


def run_suite(*args, **kwargs):
    """:func:`hyperlie.suite.run_suite`, imported on first call."""
    from .suite import run_suite

    return run_suite(*args, **kwargs)


def export(*args, **kwargs):
    """:func:`hyperlie.export.export`, imported on first call."""
    from .export import export

    return export(*args, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlie",
        description="Construct and verify the polynomial vector-field Lie "
        "algebras of hyperelliptic curve families (genus 1-3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--genus", choices=["1", "2", "3", "all"], default="all")
    v.add_argument("--mode", choices=["exact", "pit"], default="exact")
    v.add_argument("--seed", type=int, default=0, help="pit-mode RNG seed")
    v.add_argument(
        "--samples", type=int, default=3, help="pit-mode evaluation points per check"
    )
    v.add_argument(
        "--bound", type=int, default=211,
        help="pit-mode coordinate bound (must be >= twice the max identity degree)",
    )
    v.add_argument("--report", choices=["text", "json"], default="text")

    e = sub.add_parser("export", help="render constructed objects")
    e.add_argument(
        "--what", choices=["fields", "map", "brackets", "matrices"], required=True
    )
    e.add_argument("--genus", type=int, choices=[1, 2, 3], required=True)
    e.add_argument("--format", choices=["json", "latex"], required=True)
    return parser


def main(argv=None) -> int:
    """Run one command.  With ``argv`` None, as in ``python -m hyperlie.cli``
    and the ``hyperlie`` script, the process ends after this call: an atexit
    ``gc.freeze``, which runs before teardown, spares the exit collections
    every object made so far.  Callers passing ``argv`` keep their own exit."""
    if argv is None:
        atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        from .suite import PitConfig

        genus = args.genus if args.genus == "all" else int(args.genus)
        pit = PitConfig(
            sample_count=args.samples, coordinate_bound=args.bound, seed=args.seed
        )
        try:
            report = run_suite(genus, mode=args.mode, pit=pit)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.report == "json":
            sys.stdout.write(report.to_json())
        else:
            sys.stdout.write(report.to_text())
        return 0 if report.passed else 1
    if args.command == "export":
        sys.stdout.write(export(args.what, args.genus, args.format))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
