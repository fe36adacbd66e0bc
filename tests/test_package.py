"""The package holds only code that its entry points reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvesearch"
PERFBENCH = ROOT / "perfbench"


def _identifiers(*nodes: ast.AST) -> set[str]:
    """The names used under `nodes`, and with a leading "." the attribute
    names and string constants."""
    out = set()
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add("." + n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add("." + n.value)
    return out


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The class's methods other than dunders, which the language calls."""
    return [stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]


def _package() -> tuple[dict[str, set[str]], set[str]]:
    """(definition "module.name" or "module.Class.method" -> identifiers its
    body uses, identifiers used by module-level code).  A class's own
    identifiers leave out its methods' bodies, which count only once the
    method is reached.  Constants and aliases bound at module level are
    definitions too; `__all__` and the like are roots."""
    defs: dict[str, set[str]] = {}
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                methods = _methods(stmt)
                for method in methods:
                    defs[f"{path.stem}.{stmt.name}.{method.name}"] = \
                        _identifiers(method)
                defs[f"{path.stem}.{stmt.name}"] = _identifiers(
                    *stmt.bases, *stmt.keywords, *stmt.decorator_list,
                    *(s for s in stmt.body if s not in methods))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{path.stem}.{stmt.name}"] = _identifiers(stmt)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue  # binds names; what uses them is what counts
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if len(names) == len(targets) and not any(
                        n.startswith("__") for n in names):
                    for n in names:
                        defs[f"{path.stem}.{n}"] = _identifiers(stmt)
                else:
                    roots |= _identifiers(stmt)
            else:
                roots |= _identifiers(stmt)
    return defs, roots


def _reached(roots: set[str]) -> set[str]:
    """The definitions reachable from module-level code, the console script
    `cli.main` and the identifiers `roots`.  Matching is by name alone: a
    name used anywhere keeps every definition of it.  A method is reached
    only through an attribute (`x.name`) or a string, never through a bare
    name such as a local variable."""
    defs, reached = _package()
    reached |= roots | {"main"}

    def used(key: str) -> bool:
        owner, _, name = key.rpartition(".")
        return "." + name in reached or ("." not in owner and name in reached)

    done: set[str] = set()
    while True:
        new = {key for key in defs if key not in done and used(key)}
        if not new:
            break
        for key in new:
            reached |= defs[key]
        done |= new
    return done


def _perfbench_identifiers() -> set[str]:
    """Every identifier the benchmark harness uses, read through its syntax
    tree, so that a name in a comment or docstring keeps nothing alive."""
    return set().union(*(_identifiers(ast.parse(path.read_text(encoding="utf-8")))
                         for path in sorted(PERFBENCH.glob("*.py"))))


def test_package_holds_only_reachable_code():
    # Roots: module-level code (`__all__`, the `__main__` guard), the console
    # script `cli.main`, and every identifier the benchmark harness uses.
    # The test errs towards missing dead code.  Reference implementations
    # that only the tests use belong in tests/oracles.py.
    unreached = sorted(set(_package()[0]) - _reached(_perfbench_identifiers()))
    assert not unreached, f"no entry point reaches {unreached}"


def test_only_these_definitions_live_for_the_benchmark():
    # What only `perfbench/` keeps alive, as the list of what to move into
    # tests/oracles.py or delete once the benchmark stops using it.  New
    # code that only the benchmark reaches fails here.
    only_perfbench = _reached(_perfbench_identifiers()) - _reached(set())
    assert sorted(only_perfbench) == [
        "corpus.CorpusResult.passed",
        "irred.find_simple_point",
        "orbit.SieveEngine.pack_state",
        "search.finalize_catalog",
        "search.read_catalog",
        "search.write_catalog",
        "singular._deflate_root",
        "singular._peval",
        "singular.factor_binary_form",
    ]
