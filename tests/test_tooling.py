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


def test_package_source_reads_only_xdg_cache_home_from_the_environment():
    # The command line alone determines stdout; the environment supplies only
    # the default cache location.  Any other environ/getenv use is reported
    # by file and line, an alias such as `env = os.environ` included.
    env_names = {"environ", "environb", "getenv", "getenvb"}
    allowed, found = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        xdg_reads = {
            id(node.func.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
            and [getattr(a, "value", None) for a in node.args] == ["XDG_CACHE_HOME"]
        }
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name not in env_names:
                continue
            if id(node) in xdg_reads:
                allowed += 1
            else:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert allowed == 1


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


def test_perfbench_tracer_counts_the_rows_and_skips_of_the_front_door(capsys):
    # The tracer reads a third positional argument of chern.c2 as a method
    # and counts a ceiling skip only without one, so c2 must keep taking
    # exactly (n, lam) for a traced run to count its skips.
    from schern import cli

    t = _load_tracer().Tracer()
    t.install()
    try:
        assert cli.run(["image-index", "9", "3", "--no-cache"]) == 0
    finally:
        t.uninstall()
    assert capsys.readouterr().out == "3\n"
    assert t.counts["tables.rows"] == 31
    assert t.counts["tables.cross_checked_rows"] == 27
    assert t.counts["chern.ceiling_skips"] == 4


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
