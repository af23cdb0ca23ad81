"""Every import of the package resolves.

Most imports in this codebase are lazy (inside the function that needs
them), so a module or function that is deleted or renamed can leave an
import that fails only when its caller runs. This test reads the source of
the package, `__ray_entry__.py` and `perfbench/` without importing any of
it, and resolves each `wikidata_edit_history_ray` import, absolute or
relative, at module level or inside a function, to an existing module and
a name that module binds at its top level.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "wikidata_edit_history_ray"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_path(name: str):
    base = ROOT.joinpath(*name.split("."))
    for p in (base.with_suffix(".py"), base / "__init__.py"):
        if p.is_file():
            return p
    return None


def _top_level_names(path: Path) -> set:
    """Names a module binds at its top level, including inside module-level
    if / try / with blocks."""
    names = set()

    def visit(stmts):
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0]
                             for a in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    names.update(n.id for n in ast.walk(t)
                                 if isinstance(n, ast.Name))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)

    visit(ast.parse(path.read_text()).body)
    return names


def _sources():
    yield from sorted((ROOT / PKG).rglob("*.py"))
    yield ROOT / "__ray_entry__.py"
    yield from sorted((ROOT / "perfbench").rglob("*.py"))


def _package_imports():
    """(file, line, module, name or None) for every import of the package;
    name is None for a plain `import module`."""
    for path in _sources():
        in_pkg = path.is_relative_to(ROOT / PKG)
        package = _module_name(path)
        if in_pkg and path.name != "__init__.py":
            package = package.rpartition(".")[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == PKG:
                        yield path, node.lineno, a.name, None
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    assert in_pkg, f"{path}:{node.lineno} relative import"
                    base = package.split(".")
                    base = base[:len(base) - node.level + 1]
                    module = ".".join(base + ([node.module] if node.module
                                              else []))
                else:
                    module = node.module
                if module.split(".")[0] == PKG:
                    for a in node.names:
                        yield path, node.lineno, module, a.name


def test_every_package_import_resolves():
    bound = {}
    broken, seen = [], 0
    for path, line, module, name in _package_imports():
        seen += 1
        where = f"{path.relative_to(ROOT)}:{line}"
        mpath = _module_path(module)
        if mpath is None:
            broken.append(f"{where}: no module {module}")
            continue
        if name is None or _module_path(f"{module}.{name}") is not None:
            continue
        if mpath not in bound:
            bound[mpath] = _top_level_names(mpath)
        if name == "*" or name not in bound[mpath]:
            broken.append(f"{where}: {module} has no {name}")
    assert seen, "no package imports found"
    assert not broken, "\n".join(broken)


def test_lazy_and_relative_imports_are_seen():
    """The walk reaches imports inside functions and relative imports, the
    kinds an import-time check would miss."""
    found = {(p.relative_to(ROOT).as_posix(), m, n)
             for p, _, m, n in _package_imports()}
    # lazy, inside a perfbench function
    assert ("perfbench/run.py", f"{PKG}.pipelines.kg",
            "run_extraction") in found
    # relative, resolved against the importing module's package
    assert any(p.startswith(f"{PKG}/stages/") and
               m == f"{PKG}.stages.distributed" for p, m, _ in found)
