"""Checks on the package source itself, independent of any computation."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "schern"


def test_package_source_has_no_assert_statements():
    # python -O strips assert, so a check that guards a printed number must
    # raise explicitly instead.
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_source_reads_no_environment():
    # The command line alone determines what a run reads, writes and prints:
    # no environ/getenv use, an alias such as `env = os.environ` included,
    # and no home directory lookup.  Each use is reported by file and line.
    banned = {"environ", "environb", "getenv", "getenvb", "expandvars",
              "expanduser", "home"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.alias) else None) in banned
    ]
    assert found == []


def test_package_source_imports_nothing_from_typing():
    # The record types are collections.namedtuple classes: a typing.NamedTuple
    # class costs about twice as much to build at import, and every command
    # pays that.  Each typing or NamedTuple import is reported by file and line.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and ("typing" in [getattr(node, "module", None),
                          *(a.name.split(".")[0] for a in node.names)]
             or "NamedTuple" in [a.name for a in node.names])
    ]
    assert found == []


def test_no_module_imports_json_csv_or_pathlib():
    # render_table writes --format json and --format csv itself, the cache
    # reads and writes its own fixed line, and --cache stays a str that os
    # and open take as it is, so no command loads any of them.  Each json,
    # csv or pathlib import is reported by file and line.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in [getattr(node, "module", None),
                       *(a.name for a in node.names)]
        if module and module.split(".")[0] in ("csv", "json", "pathlib")
    ]
    assert found == []


def test_package_source_stays_in_the_integers():
    # every printed number is exact: no true division, no float constant or
    # float() call, and neither fractions nor decimal.  Each use is reported
    # by file and line.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any(module and module.split(".")[0] in ("fractions", "decimal")
                for module in [getattr(node, "module", None),
                               *(a.name for a in node.names)])
    ]
    assert found == []


def _load_tracer():
    """perfbench/tracer.py, loaded by path, with every schern module loaded."""
    import importlib.util

    import schern.cli  # noqa: F401  (loads every schern module)

    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_perfbench_tracer_wraps_every_target_and_restores_it():
    # The tracer looks each wrapped name up with getattr, so a rename in the
    # package would break only a traced benchmark run; catch it here.
    import sys

    tracer = _load_tracer()

    functions = [(m, a) for m, a, _ in tracer.SPANS + tracer.COUNTERS]
    missing = [f"{m}.{a}" for m, a in functions if not hasattr(sys.modules[m], a)]
    methods = []
    for cls_path, attr, _ in tracer.METHODS:
        mod_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(sys.modules[mod_name], cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{cls_path}.{attr}")
        else:
            methods.append((cls, attr))
    assert missing == []

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "schern"]
    before = [(mod, dict(vars(mod))) for mod in modules]
    originals = {(m, a): getattr(sys.modules[m], a) for m, a in functions}
    original_methods = {(c, a): vars(c)[a] for c, a in methods}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(sys.modules[m], a) is not f
                   for (m, a), f in originals.items())
        assert all(vars(c)[a] is not f for (c, a), f in original_methods.items())
    finally:
        t.uninstall()
    for mod, names in before:
        changed = [k for k, v in vars(mod).items() if names.get(k, v) is not v]
        assert changed == [], mod.__name__
    assert all(vars(c)[a] is f for (c, a), f in original_methods.items())


def test_perfbench_tracer_counts_the_rows_and_skips_of_the_front_door(capsys, tmp_path):
    # The tracer counts the rows and the cross-checked rows of each table
    # that generator_table returns; every other row was skipped by the
    # ceiling.  The rows come from chern.column_rows, not per-row chern.c2
    # calls, so the skips are read as rows less cross-checked rows.  The
    # second cached run is served by the 27 records the first one put.  The
    # cache is looked up only under the ceiling: 27 rows in each cached run.
    from schern import cli

    t = _load_tracer().Tracer()
    t.install()
    try:
        assert cli.run(["generators", "9", "3", "--no-cache"]) == 0
        for _ in range(2):
            assert cli.run(["generators", "9", "3", "--cache", str(tmp_path / "F")]) == 0
    finally:
        t.uninstall()
    assert capsys.readouterr().out.count("\ngcd 3\n") == 3
    assert t.counts["tables.rows"] == 3 * 31
    assert t.counts["tables.cross_checked_rows"] == 3 * 27
    assert t.counts["tables.rows"] - t.counts["tables.cross_checked_rows"] == 3 * 4
    assert t.counts["cache.get.calls"] == 2 * 27
    assert t.counts["cache.put.calls"] == 27
    assert t.counts["cache.hits"] == 27


def test_only_the_command_line_opens_a_cache():
    # chern.c2 reads and writes records only through the object it is
    # handed, so the math module imports nothing from the cache and opens
    # no file; only --cache constructs a ResultCache.  Each import and each
    # construction is reported by file and line.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    cache_imports = [
        node.lineno for node in ast.walk(trees["chern.py"])
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("cache")
        or isinstance(node, ast.Import)
        and any(a.name.split(".")[-1] == "cache" for a in node.names)
    ]
    assert cache_imports == []
    built = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else getattr(node.func, "attr", None)) == "ResultCache"
    ]
    assert [site.split(":")[0] for site in built] == ["cli.py"], built


def test_only_the_command_line_catches_a_failed_cross_check():
    # a CrossCheckError ends the command: cli.run prints it to stderr and
    # exits 3 before anything reaches stdout.  A layer below that caught it
    # could carry on and yield a gcd over the rows that passed.  Each except
    # clause that names it is reported by file and enclosing definition.
    found = [
        f"{path.name}:{getattr(top, 'name', top.lineno)}"
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and "CrossCheckError" in {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node.type)
            if isinstance(sub, (ast.Name, ast.Attribute))}
    ]
    assert found == ["cli.py:run"]


def test_tables_and_cli_import_no_private_name_from_another_module():
    # a _-prefixed helper is its module's own business: the command line
    # and the tables reach another module through its public names only
    found = [
        f"{name}:{node.lineno} {alias.name}"
        for name in ("tables.py", "cli.py")
        for node in ast.walk(ast.parse((SRC / name).read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "schern")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert found == []


def test_every_public_function_or_class_is_run_exported_or_traced():
    # src/ holds what a command or the benchmark tracer runs; a helper that
    # only the tests call belongs in tests/oracles.py.  A public top-level
    # function or class passes when code elsewhere in src/ refers to it,
    # when it is exported in __all__ and named in the README's Library
    # section, or when perfbench/tracer.py wraps it by name.
    import re

    import schern

    tracer = _load_tracer()
    traced = {attr for _, attr, _ in tracer.SPANS + tracer.COUNTERS}
    readme = (SRC.parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", library)) & set(schern.__all__)
    assert {"c2", "GroupSpec", "image_index"} <= documented

    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and own[0] != "_":
                defined.append((path.name, own))
            referenced |= {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute))
            } - {own}
    assert len(defined) > 20
    unused = [f"{module}:{name}" for module, name in defined
              if name not in referenced | documented | traced]
    assert unused == []


def test_readme_cli_lines_print_the_value_they_document(capsys):
    # each line of the README's CLI block that ends in "# <integer>" is run
    # in process and must print exactly that integer
    import re
    import shlex

    from schern import cli

    readme = (SRC.parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [(shlex.split(m[1]), m[2])
                  for m in re.finditer(r"^schern (.*?)\s+# (\d+)$", block, re.M)]
    assert [argv[0] for argv, _ in documented] == [
        "c2", "dim", "image-index", "image-index"]
    for argv, value in documented:
        assert cli.run(argv) == 0, argv
        assert capsys.readouterr().out == f"{value}\n", argv


def test_the_determinant_shares_no_code_with_the_closed_form(monkeypatch):
    # the cross-check of c2 is a second route only while it never reaches
    # the closed-form loop: with that loop broken it still gives (n_lam, dim)
    # by the columns and by the rows
    import schern.chern as chern_mod

    # the last two take 19 and 4 elimination steps: the 20-line staircase,
    # and the generator of SL(25)/mu_5 with column heights (24, 19, 14, 9, 4)
    shapes = [(8, (2, 2, 2)), (9, (1,) * 8), (3, (445, 445)), (25, (5, 5, 4, 1)),
              (21, tuple(range(20, 0, -1))),
              (25, (5,) * 4 + (4,) * 5 + (3,) * 5 + (2,) * 5 + (1,) * 5)]
    expected = [(res.n_lambda, res.dim) for res in
                (chern_mod.c2_closed_form(n, lam) for n, lam in shapes)]

    def broken(*args):
        raise AssertionError("the determinant ran the closed-form loop")

    monkeypatch.setattr(chern_mod, "_line_indices", broken)
    assert [chern_mod._jacobi_trudi(n, lam) for n, lam in shapes] == expected


def test_the_enumeration_shares_no_code_with_the_closed_form(monkeypatch):
    # the tableau oracle counts its own dimension, so it still answers with
    # the closed-form loop broken
    import schern.chern as chern_mod

    def broken(*args):
        raise AssertionError("the enumeration ran the closed-form loop")

    monkeypatch.setattr(chern_mod, "_line_indices", broken)
    assert tuple(chern_mod.c2_enumeration(8, (2, 2, 2))) == (700, False, 1176)


def test_only_the_settle_rule_and_the_unchecked_closed_form_run_the_loop():
    # every other route to a printed index or dimension, schur_dimension
    # included, goes through c2 and so through the cross-check
    callers = sorted(
        getattr(top, "name", "<module>")
        for top in ast.parse((SRC / "chern.py").read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_line_indices"
    )
    assert callers == ["_settle", "c2_closed_form"]
    for path in sorted(SRC.glob("*.py")):
        if path.name != "chern.py":
            assert "_line_indices" not in path.read_text(), path.name


def test_the_row_pipeline_is_lazy_and_only_single_shapes_build_a_chern_result():
    # _line_indices and _settle yield their rows and column_rows hands on
    # _settle's stream, so no layer holds a list of rows; a ChernResult is
    # built only by the three single-shape routes.  Each stray construction
    # is reported by function and line.
    import inspect

    import schern.chern as chern_mod

    tree = ast.parse((SRC / "chern.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_line_indices", "_settle"):
        assert any(isinstance(sub, ast.Yield) for sub in ast.walk(defs[name])), name
    (ret,) = [sub for sub in ast.walk(defs["column_rows"]) if isinstance(sub, ast.Return)]
    assert isinstance(ret.value, ast.Call) and ret.value.func.id == "_settle"
    assert inspect.isgenerator(chern_mod.column_rows(3, [(1,)]))
    assert inspect.isgenerator(chern_mod._line_indices(3, [(1,)], True))
    found = [
        (path.name, getattr(top, "name", "<module>"), node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else getattr(node.func, "attr", None)) == "ChernResult"
    ]
    assert sorted(name for _, name, _ in found) == [
        "c2", "c2_closed_form", "c2_enumeration"], found
    assert {path for path, _, _ in found} == {"chern.py"}, found
