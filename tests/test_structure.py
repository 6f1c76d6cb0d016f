"""The package's import structure, read from its source with `ast`.

No module reaches into another's private names, and modules import their
siblings at the top, so the import graph is what the top of each file
says: layers -> model -> space -> engine -> {baselines, casestudy} ->
search -> cli.  The one import inside a function is model's of
space.instantiate in schedule_from_dict, which space builds on model.
And every public function and class is called by some program, not only
by the tests.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "convsched"
# (module, function) -> the sibling module it may import in its body.
NESTED_ALLOWED = {("model", "schedule_from_dict"): "space"}
# Public names that no program calls, each kept for its reason.
UNCALLED_ALLOWED = {
    "casestudy.hwce_vs_hwc_ratio":
        "the home of the paper's HWCE-over-HWC traffic ratio (up to 14x)",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module a relative import names, None for others."""
    if node.level != 1:
        return None
    return (node.module or "").partition(".")[0] or None


def test_no_private_name_crosses_a_module():
    crossings = [
        f"{name}.py:{node.lineno}: from .{node.module} import {alias.name}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")]
    assert crossings == []


def test_siblings_are_imported_at_the_top_only():
    nested = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    if NESTED_ALLOWED.get((name, fn.name)) != _sibling(node):
                        nested.append(f"{name}.{fn.name}: from "
                                      f".{node.module or ''} import ...")
    assert nested == []


def test_top_level_sibling_imports_form_no_cycle():
    graph = {name: {_sibling(node) for node in tree.body
                    if isinstance(node, ast.ImportFrom) and _sibling(node)}
             for name, tree in _modules().items()}
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, " -> ".join(path + (name,))
        if name not in done:
            for dep in graph.get(name, ()):
                visit(dep, path + (name,))
            done.add(name)

    for name in graph:
        visit(name, ())
    assert "search" not in graph["baselines"] | graph["casestudy"]


def test_every_public_name_is_used_outside_the_tests():
    """Each public module-level function and class of the package is named,
    as a name or an attribute, by the package, the benchmark or the tools,
    outside its own definition.  Re-exports in `__init__` and names in
    strings (such as the benchmark's span hooks) do not count."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources += sorted((ROOT / "tools").glob("*.py"))
    refs = set()  # (module, enclosing top-level name, name referenced)
    for path in sources:
        module = path.stem if path.parent == PACKAGE else str(path)
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add((module, getattr(top, "name", None), node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((module, getattr(top, "name", None), node.attr))
    unused = [
        f"{name}.{top.name}"
        for name, tree in _modules().items() if name != "__init__"
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not top.name.startswith("_")
        and f"{name}.{top.name}" not in UNCALLED_ALLOWED
        and not any(used == top.name and (module, owner) != (name, top.name)
                    for module, owner, used in refs)]
    assert unused == []
