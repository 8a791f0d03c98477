"""Suite orchestration and command-line surface."""

import ast
import hashlib
import json
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
from hyperlie.report import schema_text
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
    # det T - c*R has weight 4g(2g+1) in parameters of weight >= 4
    assert [max_identity_degree(g) for g in (1, 2, 3)] == [3, 10, 21]


def test_cli_checks_the_schwartz_zippel_premise_at_its_true_degree(capsys):
    # genus 3 samples an identity of degree 21, so --bound must be >= 42
    pit = ["verify", "--genus", "3", "--mode", "pit", "--seed", "1", "--bound"]
    assert main([*pit, "41"]) == 2
    assert "below twice the maximal identity degree 21" in capsys.readouterr().err
    assert main([*pit, "42"]) == 0


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
    # Every entry, fields.jacobi included, runs on the calling thread in
    # suite_entries order, one after another, so the entry times sum to at
    # most the elapsed time.
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
    assert calls == [(here, eid) for eid, _, _ in suite_entries(1)]
    assert "g1.fields.jacobi" in {eid for _, eid in calls}
    assert sum(e.wall_time for e in rep.entries) <= elapsed


def _content(report):
    return [(e.id, e.anchor, e.status, e.residual) for e in report.entries]


@pytest.mark.parametrize("mode,seed", [("exact", 0), ("pit", 1), ("pit", 3)])
def test_in_process_reports_repeat(mode, seed):
    pit = PitConfig(seed=seed)
    assert _content(run_suite("all", mode, pit)) == _content(run_suite("all", mode, pit))


def test_suite_and_exports_make_no_bareiss_or_division_call(monkeypatch):
    # The runtime computes R by minor expansion and checks tangency by
    # Saito's identity; Bareiss and exact division are kept as the tests'
    # second algorithm.  Every module binding of the two functions is
    # replaced by a counter that also raises, so a call fails its entry.  The
    # catalog cache is cleared so nothing built earlier hides a call.
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
    # the counters do count and raise
    ring = lambda_space.CurveModel(1).ring
    with pytest.raises(AssertionError, match="divexact called"):
        exactpoly.divexact(ring.parse("4*l4^3"), ring.parse("l4^3"))
    assert counts["divexact"] == 1


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_suite_computes_each_entry_of_T_once_per_genus(monkeypatch, mode):
    # The parameter-space fields are T's rows and T o p pulls back ctx.T,
    # so a clean run builds T once per genus and each entry once.
    from hyperlie import lambda_space

    genera, entries = [], []
    build_T, t_entry = lambda_space.build_T, lambda_space.t_entry

    def counted_T(model):
        genera.append(model.genus)
        return build_T(model)

    def counted_entry(model, k, m):
        entries.append(model.genus)
        return t_entry(model, k, m)

    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "hyperlie"]:
        if getattr(module, "build_T", None) is build_T:
            monkeypatch.setattr(module, "build_T", counted_T)
    monkeypatch.setattr(lambda_space, "t_entry", counted_entry)
    report = run_suite("all", mode)
    assert report.passed, [(e.id, e.residual) for e in report.failures()]
    assert sorted(genera) == [1, 2, 3]
    assert {g: entries.count(g) for g in genera} == {g: (2 * g) ** 2 for g in genera}


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_suite_expands_R_at_genus_1_only(monkeypatch, mode):
    # params.R_weight reads the Bezout matrix, so only genus 1's
    # params.R_value expands R.
    genera, expand = [], suite.discriminant_R

    def counted(model):
        genera.append(model.genus)
        return expand(model)

    monkeypatch.setattr(suite, "discriminant_R", counted)
    for g in (1, 2, 3):
        assert run_suite(g, mode, PitConfig(seed=1)).passed
    assert genera == [1]


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_only_detT_eq_cR_evaluates_or_expands_a_parameter_space_matrix(monkeypatch, mode):
    # Tangency, the relation substitution and the action-matrix factor run
    # one exact proof in both modes: none evaluates a matrix or calls
    # fraction_det, and the factor's only minor expansions are its small
    # generator-space minors det A and det J_minor.  Exact detT_eq_cR
    # proves det T = c*R from the Schur complement of the Bezout matrix: it
    # expands no determinant and reads no R.  Pit detT_eq_cR samples det T
    # and det B, so with the counters raising it must fail.  (params.R_weight
    # evaluates B too, at the one fixed point l = 1 in both modes, as its
    # certificate that det B != 0; no sample is drawn there.)
    from hyperlie import exactpoly, genus_fields, lambda_space

    calls, minors = [], []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return call

    def counted(matrix, _expand=exactpoly.det_minor_expansion):
        minors.append(matrix)
        return _expand(matrix)

    monkeypatch.setattr(suite, "fraction_det", forbidden("fraction_det"))
    monkeypatch.setattr(exactpoly.PolyMatrix, "evaluate", forbidden("PolyMatrix.evaluate"))
    monkeypatch.setitem(suite._BUILDS, "R", forbidden("ctx.R"))
    assert "detT" not in suite._BUILDS
    assert not hasattr(suite, "det_minor_expansion")
    for module in (genus_fields, lambda_space):
        monkeypatch.setattr(module, "det_minor_expansion", counted)
    for g in (1, 2, 3):
        ctx, fns = SuiteContext(g), {eid: fn for eid, _, fn in suite_entries(g)}
        for name in ("params.tangency", "map.relations_vanish", "fields.detTcal_factor"):
            entry_id = f"g{g}.{name}"
            minors.clear()
            assert fns[entry_id](ctx, mode, PitConfig(seed=1),
                                 _entry_rng(1, entry_id)) == (True, None), entry_id
            sizes = sorted(len(m.rows) for m in minors)
            assert sizes == ([g, 2 * g] if name == "fields.detTcal_factor" else [])
            assert all(m.ring == ctx.cat_zero.ring for m in minors)
        assert calls == []
        entry_id = f"g{g}.params.detT_eq_cR"
        minors.clear()
        if mode == "exact":
            assert fns[entry_id](ctx, mode, PitConfig(seed=1), None) == (True, None)
            assert calls == [] and minors == []
        else:
            with pytest.raises(AssertionError, match="called"):
                fns[entry_id](ctx, mode, PitConfig(seed=1), _entry_rng(1, entry_id))
            assert calls == ["PolyMatrix.evaluate"]
        calls.clear()


def test_map_export_builds_no_field_catalog():
    from hyperlie import genus_fields

    genus_fields._catalog_cached.cache_clear()
    for genus in (1, 2, 3):
        for fmt in ("json", "latex"):
            export("map", genus, fmt)
    assert genus_fields._catalog_cached.cache_info().currsize == 0


def test_exports_match_frozen_digests():
    # perfbench/expected.json freezes the sha256 of all 24 exports' stdout
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    frozen = json.loads(path.read_text())["export_sha256"]
    assert len(frozen) == 24
    for key, digest in sorted(frozen.items()):
        what, genus, fmt = key.split("-")
        out = export(what, int(genus), fmt).encode()
        assert hashlib.sha256(out).hexdigest() == digest, key


def test_zero_catalog_has_no_parameters():
    # perfbench/tracer.py reads the catalog cache's hit and miss counts
    from hyperlie import genus_fields
    from hyperlie.param_map import PARAM_NAMES

    cat = genus_fields.catalog(2, "zero")
    hits = genus_fields._catalog_cached.cache_info().hits
    assert genus_fields.catalog(2, "zero") is cat
    assert genus_fields._catalog_cached.cache_info().hits == hits + 1
    assert all(v == 0 for _, v in cat.param_values)
    assert sorted(p for p, _ in cat.param_values) == sorted(PARAM_NAMES)
    pidx = [cat.ring.index(p) for p in PARAM_NAMES]
    for name, field in cat.fields.items():
        for v, q in field.action.items():
            assert all(not m[i] for m in q.terms for i in pidx), f"{name}({v})"


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


def test_runtime_modules_use_every_import():
    # __init__ imports to re-export; every other module imports to use
    for path in sorted(Path(hyperlie.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                assert bound in used, f"{path.name}:{node.lineno} imports {bound} unused"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    # derivation, the layer on top of the kernel, may import exactpoly's
    # integer-form helpers; every other private name is read only in the
    # module that defines it
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(hyperlie.__file__).parent.glob("*.py"))}
    defined = {}  # module -> private names it defines
    for mod, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(mod, set()).add(n.name)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                defined.setdefault(mod, set()).add(n.attr)
    bad = []
    for mod, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.level or n.module.startswith("hyperlie")):
                source = (n.module or "").split(".")[-1]
                bad += [f"{mod} imports {a.name} from {source}" for a in n.names
                        if _private(a.name) and (mod, source) != ("derivation", "exactpoly")]
            elif isinstance(n, ast.Attribute) and _private(n.attr):
                owners = {m for m, names in defined.items() if n.attr in names}
                if owners - {mod}:
                    bad.append(f"{mod}:{n.lineno} reads {n.attr} of {sorted(owners - {mod})}")
    assert bad == []


def _references(tree) -> list[str]:
    """Every name, attribute and imported name that ``tree`` mentions."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.split(".")[-1])
    return out


# Runtime definitions that no package module references, with the reason
# each one stays.
_USED_FROM_OUTSIDE = {
    "det_bareiss": "the benchmark's tracer wraps it by name; ROADMAP item 3",
    "schema_text": "the benchmark's gate validates reports against it",
}


def test_runtime_definitions_are_all_referenced():
    # every top-level function and class of the package, and every
    # non-dunder method, is used by the package itself besides its own
    # definition: a name only tests or the ``__init__`` exports mention is
    # not counted; claims are reached through their ``_claim`` registration
    package = Path(hyperlie.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    counts = {}
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for name in _references(tree):
                counts[name] = counts.get(name, 0) + 1
    defined = set()
    for path in trees:
        defs = []
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
        defined.update(node.name for node in defs)
        for node in defs:
            if any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "_claim"
                   for d in node.decorator_list):
                continue
            if node.name in _USED_FROM_OUTSIDE:
                continue
            inside = _references(node).count(node.name)
            assert counts.get(node.name, 0) > inside, (
                f"{path.name}:{node.lineno} defines {node.name}, used nowhere in the package"
            )
    assert set(_USED_FROM_OUTSIDE) <= defined


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
    # exact mode draws no random numbers, so it loads no RNG or hash module,
    # and a text report loads no JSON encoder
    assert loaded & {"hashlib", "random", "json"} == set()
    assert "dataclasses" not in _modules_loaded_by("import hyperlie")
    # Ring.parse imports ast when called, so a command that reads no
    # displayed text does not load it
    assert "ast" not in _modules_loaded_by(
        "from hyperlie.cli import main; "
        "main(['export', '--what', 'map', '--genus', '3', '--format', 'json'])"
    )


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


def test_console_script_exits_through_the_freeze():
    # the ``hyperlie`` script calls sys.exit(main()) in a fresh interpreter;
    # a handler registered before main runs after its atexit gc.freeze
    argv = ["export", "--what", "brackets", "--genus", "2", "--format", "latex"]
    src = str(Path(hyperlie.__file__).resolve().parent.parent)
    script = (
        f"import atexit, gc, sys; sys.path.insert(0, {src!r})\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from hyperlie.cli import main\n"
        f"sys.argv[1:] = {argv!r}\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    want = export("brackets", 2, "latex").encode()
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"True\n")


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
