"""Lint: no class under probe_ray/ defines the same method name twice.

A second ``def`` of a name in one class body silently replaces the first,
so the earlier body becomes dead code that still reads as live. Property
setters/deleters and ``typing.overload`` stubs reuse a name on purpose
and are not counted."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "probe_ray"


def _reuses_name(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for d in fn.decorator_list:
        if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"):
            return True
        if isinstance(d, ast.Name) and d.id == "overload":
            return True
        if isinstance(d, ast.Attribute) and d.attr == "overload":
            return True
    return False


def shadowed_methods(source: str) -> list[tuple[str, str, int]]:
    """(class, method, line of the later definition) for every method
    name a class body defines more than once."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        seen: set[str] = set()
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _reuses_name(fn):
                continue
            if fn.name in seen:
                out.append((node.name, fn.name, fn.lineno))
            seen.add(fn.name)
    return out


def test_scan_finds_a_shadowed_method():
    src = (
        "class A:\n"
        "    def f(self): return 1\n"
        "    @property\n"
        "    def p(self): return 0\n"
        "    @p.setter\n"
        "    def p(self, v): pass\n"
        "    def f(self): return 2\n"
    )
    assert shadowed_methods(src) == [("A", "f", 7)]


def test_no_class_defines_a_method_twice():
    found = []
    for path in sorted(PKG.rglob("*.py")):
        for cls, name, line in shadowed_methods(path.read_text()):
            found.append(f"{path.relative_to(PKG.parent)}:{line} {cls}.{name}")
    assert not found, "methods defined twice:\n" + "\n".join(found)
