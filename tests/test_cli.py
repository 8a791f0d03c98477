"""Suite orchestration and command-line surface."""

import ast
import errno
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema
import pytest

import hyperlie
from hyperlie import reference, suite
from hyperlie.cli import main
from hyperlie.export import export
from hyperlie.report import ReportEntry, schema_text
from hyperlie.suite import (
    PitConfig,
    SuiteContext,
    _entry_rng,
    max_identity_degree,
    run_suite,
    suite_entries,
)


def test_genus1_exact_suite_passes_with_enough_entries():
    rep = run_suite(1, "exact")
    assert rep.passed
    assert len(rep.entries) >= 12
    assert "g1.params.detT_eq_cR" in {e.id for e in rep.entries}


def test_entry_ids_unique_and_sorted():
    rep = run_suite(1, "exact")
    ids = [e.id for e in rep.entries]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_pit_seed_stability():
    pat1 = {
        e.id: e.status for e in run_suite(2, "pit", PitConfig(seed=1)).entries
    }
    pat2 = {
        e.id: e.status for e in run_suite(2, "pit", PitConfig(seed=2)).entries
    }
    assert pat1 == pat2


def test_pit_agrees_with_exact_genus1():
    exact = {e.id: e.status for e in run_suite(1, "exact").entries}
    pit = {e.id: e.status for e in run_suite(1, "pit", PitConfig(seed=3)).entries}
    assert exact == pit


def test_pit_bound_validation():
    with pytest.raises(ValueError):
        run_suite(3, "pit", PitConfig(coordinate_bound=10))
    assert max_identity_degree(3) == 42
    assert max_identity_degree(1) == 6


def test_pit_rng_deterministic_across_processes():
    a = _entry_rng(5, "some.entry").random()
    b = _entry_rng(5, "some.entry").random()
    assert a == b


def test_pit_catches_corrupted_identity(monkeypatch):
    # a deliberately wrong displayed identity must fail the suite's own
    # entry in pit mode for several seeds: [L1, L2] gets L1 coefficient
    # x2 + x2^2 instead of x2
    row = next(r for r in reference.BRACKET_TABLE[3] if r[:2] == ("L1", "L2"))
    monkeypatch.setitem(row[2], "L1", "x2 + x2^2")
    entry_id = "g3.fields.table.L1_L2"
    fn = next(fn for eid, _, fn in suite_entries(3) if eid == entry_id)
    ctx = SuiteContext(3)
    for seed in range(1, 6):
        pit = PitConfig(sample_count=3, coordinate_bound=211, seed=seed)
        ok, witness = fn(ctx, "pit", pit, _entry_rng(seed, entry_id))
        assert not ok, f"seed {seed} missed the corruption"
        assert re.match(r"\[L1,L2\]\.\w+ at \{.*\} -> -?\d", witness), witness


def test_run_suite_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_suite(7, "exact")
    with pytest.raises(ValueError):
        run_suite(1, "fuzzy")


def test_run_suite_is_serial_and_entry_times_are_honest(monkeypatch):
    # Each process runs its entries serially: this one every entry but the
    # forked child's, on the calling thread in suite_entries order.  The two
    # run side by side, so each side's entry times sum to at most the
    # elapsed time, not both together.
    calls = []

    def recording_entries(genus):
        def record(entry_id, fn):
            def check(*args):
                calls.append((threading.get_ident(), entry_id))
                return fn(*args)

            return check

        return [(eid, anchor, record(eid, fn)) for eid, anchor, fn in suite_entries(genus)]

    monkeypatch.setattr(suite, "suite_entries", recording_entries)
    start = time.perf_counter()
    rep = run_suite(1, "exact")
    elapsed = time.perf_counter() - start
    assert rep.passed
    here = threading.get_ident()
    apart = suite.apart_builds(1)
    assert set(apart) == {"g1.fields.jacobi"}
    assert calls == [(here, eid) for eid, _, _ in suite_entries(1) if eid not in apart]
    for forked in (False, True):
        assert sum(e.wall_time for e in rep.entries if (e.id in apart) == forked) <= elapsed


def _content(report):
    return [(e.id, e.anchor, e.status, e.residual) for e in report.entries]


def _refuse_fork():
    raise OSError(errno.EAGAIN, "no process slots left")


@pytest.mark.parametrize("mode,seed,no_fork", [
    ("exact", 0, "missing"), ("pit", 1, "raises"), ("pit", 3, "missing"),
])
def test_forked_and_in_process_reports_are_identical(monkeypatch, mode, seed, no_fork):
    pit = PitConfig(seed=seed)
    forked = _content(run_suite("all", mode, pit))
    if no_fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _refuse_fork)
    assert _content(run_suite("all", mode, pit)) == forked


def _replace_claim(monkeypatch, entry_id, claim):
    """Swap the claim of one registered entry, keeping its id and builds."""
    rows = [row[:3] + (claim,) + row[4:] if row[0] == entry_id else row
            for row in suite._CLAIMS]
    monkeypatch.setattr(suite, "_CLAIMS", rows)


def test_apart_entries_run_in_one_forked_child(monkeypatch):
    def where(ctx, mode, pit, rng):
        yield "pid", str(os.getpid())

    _replace_claim(monkeypatch, "fields.jacobi", where)
    failures = {e.id: e.residual for e in run_suite("all", "exact").failures()}
    assert set(failures) == {f"g{g}.fields.jacobi" for g in (1, 2, 3)}
    pids = {witness.removeprefix("pid: ") for witness in failures.values()}
    assert len(pids) == 1
    assert pids != {str(os.getpid())}


@pytest.mark.parametrize("code,witness", [
    (3, "forked child exited with status 3"),
    (0, "forked child exited with status 0 after a malformed report"),
])
def test_child_that_exits_early_fails_what_it_owed(monkeypatch, code, witness):
    def leaves(ctx, mode, pit, rng):
        os._exit(code)
        yield

    _replace_claim(monkeypatch, "fields.jacobi", leaves)
    rep = run_suite(1, "exact")
    assert [e.id for e in rep.entries] == sorted(eid for eid, _, _ in suite_entries(1))
    assert {e.id: e.residual for e in rep.failures()} == {"g1.fields.jacobi": witness}


def test_child_exit_status_outranks_its_report(monkeypatch):
    real_exit = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: real_exit(7))
    failures = {e.id: e.residual for e in run_suite(1, "exact").failures()}
    assert failures == {"g1.fields.jacobi": "forked child exited with status 7"}


def test_child_report_is_checked_row_by_row():
    owed = [(None, "g1.a", "anchor a", None), (None, "g1.b", "anchor b", None)]
    rows = [["g1.a", "pass", None, 0.5], ["g1.b", "fail", "x: 1", 2]]
    assert suite._received(json.dumps(rows).encode(), owed) == [
        ReportEntry("g1.a", "anchor a", "pass", None, 0.5),
        ReportEntry("g1.b", "anchor b", "fail", "x: 1", 2),
    ]
    malformed = [
        rows[:1], rows[::-1], rows + [rows[0]], {"g1.a": rows[0]}, [rows[0], None],
        [["g1.a", "pass", "x: 1", 0.5], rows[1]],
        [["g1.a", "fail", None, 0.5], rows[1]],
        [["g1.a", "skip", None, 0.5], rows[1]],
        [["g1.a", "pass", None, "0.5"], rows[1]],
        [["g1.a", "pass", None], rows[1]],
    ]
    for bad in malformed:
        assert suite._received(json.dumps(bad).encode(), owed) is None, bad
    for data in (b"", b"\xff", json.dumps(rows).encode()[:-2]):
        assert suite._received(data, owed) is None, data


def test_suite_and_exports_make_no_bareiss_or_division_call(monkeypatch):
    # The runtime computes R by minor expansion and checks tangency by
    # products; Bareiss and exact division are kept as the tests' second
    # algorithm.  Every module binding of the two functions is replaced by a
    # counter that also raises, so a call made in the suite's forked child,
    # whose counts this process never sees, fails its entry.  The catalog
    # cache is cleared so nothing built earlier hides a call.
    from hyperlie import exactpoly, genus_fields, lambda_space

    counts = {"det_bareiss": 0, "divexact": 0}
    for name in counts:
        original = getattr(exactpoly, name)

        def counted(*args, _name=name):
            counts[_name] += 1
            raise AssertionError(f"{_name} called")

        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "hyperlie"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    genus_fields._catalog_cached.cache_clear()
    for mode in ("exact", "pit"):
        report = run_suite("all", mode)
        assert report.passed, [(e.id, e.residual) for e in report.failures()]
    for what in ("fields", "map", "brackets", "matrices"):
        for genus in (1, 2, 3):
            for fmt in ("json", "latex"):
                export(what, genus, fmt)
    assert counts == {"det_bareiss": 0, "divexact": 0}
    # the counters do count and raise: the test-only constant helper divides
    model = lambda_space.CurveModel(1)
    with pytest.raises(AssertionError, match="divexact called"):
        lambda_space.detT_R_constant(
            model, model.ring.parse("4*l4^3"), model.ring.parse("l4^3"))
    assert counts["divexact"] == 1


def test_map_export_builds_no_field_catalog():
    from hyperlie import genus_fields

    genus_fields._catalog_cached.cache_clear()
    for genus in (1, 2, 3):
        for fmt in ("json", "latex"):
            export("map", genus, fmt)
    assert genus_fields._catalog_cached.cache_info().currsize == 0


def test_runtime_imports_stdlib_only():
    for path in sorted(Path(hyperlie.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "hyperlie", (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def _modules_loaded_by(code: str) -> set[str]:
    """Module names in sys.modules after running ``code`` in a fresh
    interpreter.  ``-S`` keeps site-packages' start-up hooks from loading
    modules of their own."""
    src = str(Path(hyperlie.__file__).resolve().parent.parent)
    script = (
        f"import sys; sys.path.insert(0, {src!r}); {code}; "
        "print(' '.join(sys.modules), file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    return set(out.stderr.split())


def test_each_command_imports_only_what_it_runs():
    exports = "; ".join(
        f"main(['export', '--what', '{what}', '--genus', '1', '--format', 'json'])"
        for what in ("fields", "map", "brackets", "matrices")
    )
    loaded = _modules_loaded_by(f"from hyperlie.cli import main; {exports}")
    assert "hyperlie.export" in loaded
    unused = {"hyperlie.suite", "hyperlie.report", "hyperlie.classical",
              "dataclasses", "hashlib", "random"}
    assert loaded & unused == set()
    loaded = _modules_loaded_by(
        "from hyperlie.cli import main; main(['verify', '--genus', '1', '--mode', 'exact'])"
    )
    assert "hyperlie.suite" in loaded
    assert "hyperlie.export" not in loaded
    # exact mode draws no random numbers, so it loads no RNG or hash module
    assert loaded & {"hashlib", "random"} == set()
    assert "dataclasses" not in _modules_loaded_by("import hyperlie")


# -- CLI ------------------------------------------------------------------------


def test_cli_verify_exit_zero(capsys):
    code = main(["verify", "--genus", "1", "--mode", "exact"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all passed" in out


def test_cli_verify_json_validates_schema(capsys):
    code = main(["verify", "--genus", "1", "--mode", "pit", "--seed", "9",
                 "--report", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, json.loads(schema_text()))
    assert doc["passed"] is True
    assert doc["mode"] == "pit"
    assert doc["seed"] == 9


def test_cli_usage_error_exits_2():
    for argv in (["verify", "--genus", "9"], ["verify", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_failure_exits_1(monkeypatch, capsys):
    from hyperlie import cli
    from hyperlie.report import ReportEntry, VerificationReport

    def fake_suite(*args, **kwargs):
        rep = VerificationReport(mode="exact", genus=[1])
        rep.add(ReportEntry(id="g1.fake", anchor="forced failure",
                            status="fail", residual="x2"))
        return rep

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    code = main(["verify", "--genus", "1"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bad_pit_bound_exits_2(capsys):
    code = main(["verify", "--genus", "1", "--mode", "pit", "--bound", "3"])
    assert code == 2


def test_cli_export_map_latex(capsys):
    code = main(["export", "--what", "map", "--genus", "2", "--format", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    for s in (4, 6, 8, 10):
        assert rf"\lambda_{{{s}}}" in out


def test_export_deterministic():
    a = export("fields", 2, "json")
    b = export("fields", 2, "json")
    assert a == b
    c = export("brackets", 1, "latex")
    d = export("brackets", 1, "latex")
    assert c == d


def test_export_matrices_genus3_json():
    doc = json.loads(export("matrices", 3, "json"))
    assert set(doc["matrices"]) == {"T", "Tcal", "M"}
    assert len(doc["matrices"]["T"]) == 6
    assert len(doc["matrices"]["M"]) == 10
    assert doc["R"]["terms"]


def test_export_unknown_selector():
    with pytest.raises(ValueError):
        export("nonsense", 1, "json")
    with pytest.raises(ValueError):
        export("map", 1, "pdf")


def test_suite_entry_listing_stable():
    ids = [e[0] for e in suite_entries(1)]
    assert ids == [e[0] for e in suite_entries(1)]
    assert all(i.startswith("g1.") for i in ids)
