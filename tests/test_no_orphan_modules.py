"""Every module, and every public top-level function and class, under
``src/repro/`` must have a user outside ``tests/``.

A module counts as used when something outside the test suite reaches it:

* an import in a non-``__init__`` file under ``src/``, ``examples/``,
  ``benchmarks/`` or ``perfbench/``.  A name imported from a package is
  followed through the package ``__init__`` re-exports to the module that
  defines it;
* a string import, ``importlib.import_module("repro...")`` or perfbench's
  ``_module("repro...")``;
* the console-script entry point in ``pyproject.toml``.

A public name (a top-level ``def`` or ``class`` not starting with ``_``)
counts as used when:

* an identifier, attribute or imported name in a non-``__init__`` file
  under ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``
  spells it — its own module included, its definition not;
* a ``patch(obj, "name", ...)`` call in one of those files names it as
  a string (how perfbench wraps its traced layers);
* ``.github/workflows/ci.yml`` or a console-script entry uses it;
* a test module keeps it with a ``# <name> stays in src/ as ...`` comment
  (a test oracle: the reason is the rest of that line).

Names are matched by spelling, not resolved, so a name spelled elsewhere
for another object still counts as used: the guard is a floor.

Run as a script to list the orphans of any checkout::

    python tests/test_no_orphan_modules.py [REPO_ROOT]
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
USER_DIRS = ("src", "examples", "benchmarks", "perfbench")
STRING_IMPORTERS = {"import_module", "_module"}
STRING_PATCHERS = {"patch"}
KEEP_COMMENT = re.compile(r"#(.*)\bstays? in src/ as\b")


class _Tree:
    """The ``repro`` package of one checkout: module files and re-exports."""

    def __init__(self, root: Path):
        self.src = root / "src"
        self.files: dict[str, Path] = {}
        for path in sorted((self.src / "repro").rglob("*.py")):
            parts = path.relative_to(self.src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.files[".".join(parts)] = path
        self._exports: dict[str, dict[str, str]] = {}

    def is_package(self, module: str) -> bool:
        return self.files.get(module, Path()).name == "__init__.py"

    def exports(self, package: str) -> dict[str, str]:
        """Names a package ``__init__`` imports from elsewhere: name → source."""
        if package not in self._exports:
            found: dict[str, str] = {}
            tree = ast.parse(self.files[package].read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    base = _absolute(node, package, is_package=True)
                    for alias in node.names:
                        found[alias.asname or alias.name] = f"{base}.{alias.name}"
            self._exports[package] = found
        return self._exports[package]

    def resolve(self, dotted: str) -> str | None:
        """The module that defines ``dotted`` (a module or a module attribute)."""
        if dotted in self.files and not self.is_package(dotted):
            return dotted
        head, _, name = dotted.rpartition(".")
        if self.is_package(head) and name in self.exports(head):
            return self.resolve(self.exports(head)[name])
        if self.is_package(dotted):
            return None  # a bare package import reaches no particular module
        if head in self.files:
            return self.resolve(head)
        return None


def _absolute(node: ast.ImportFrom, module: str, *, is_package: bool) -> str:
    """The absolute module an ``ImportFrom`` node in ``module`` reads from."""
    if not node.level:
        return node.module or ""
    parts = module.split(".")
    package = parts if is_package else parts[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imported_names(path: Path, module: str | None) -> set[str]:
    """Every dotted ``repro`` name a user file imports, statically or by string."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and module is None:
                continue
            base = _absolute(node, module or "", is_package=False)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if callee in STRING_IMPORTERS and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    names.add(arg.value)
    return {n for n in names if n == "repro" or n.startswith("repro.")}


def orphan_modules(root: Path = REPO_ROOT) -> list[str]:
    """Non-package modules of ``src/repro`` that nothing outside tests uses."""
    tree = _Tree(root)
    used: set[str] = set()
    for user_dir in USER_DIRS:
        for path in sorted((root / user_dir).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            module = None
            if user_dir == "src":
                module = ".".join(path.relative_to(tree.src).with_suffix("").parts)
            for name in _imported_names(path, module):
                target = tree.resolve(name)
                if target is not None and target != module:
                    used.add(target)
    pyproject = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    for entry in pyproject.get("project", {}).get("scripts", {}).values():
        target = tree.resolve(entry.partition(":")[0])
        if target is not None:
            used.add(target)
    return sorted(
        m for m in tree.files if not tree.is_package(m) and m not in used
    )


def _spelled_names(path: Path) -> set[str]:
    """Every identifier, attribute, imported and string-patched name a
    user file spells."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if callee in STRING_PATCHERS:
                names.update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                )
    return names


def orphan_names(root: Path = REPO_ROOT) -> list[str]:
    """Public top-level functions and classes of ``src/repro`` with no user."""
    tree = _Tree(root)
    defined: list[tuple[str, str]] = []
    for module, path in tree.files.items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
    used: set[str] = set()
    for user_dir in USER_DIRS:
        for path in sorted((root / user_dir).rglob("*.py")):
            if path.name != "__init__.py":
                used |= _spelled_names(path)
    pyproject = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    for entry in pyproject.get("project", {}).get("scripts", {}).values():
        used.add(entry.partition(":")[2])
    ci = root / ".github" / "workflows" / "ci.yml"
    ci_words = set(re.findall(r"\w+", ci.read_text(encoding="utf-8"))) if ci.is_file() else set()
    kept: set[str] = set()
    for path in sorted((root / "tests").rglob("*.py")):
        for match in KEEP_COMMENT.finditer(path.read_text(encoding="utf-8")):
            kept.update(re.findall(r"\w+", match.group(1)))
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in ci_words and name not in kept
    )


def test_every_module_has_a_user_outside_tests():
    orphans = orphan_modules()
    assert not orphans, (
        "modules used only by their own tests (delete them, or use them): "
        + ", ".join(orphans)
    )


def test_every_public_name_has_a_user_outside_tests():
    orphans = orphan_names()
    assert not orphans, (
        "public functions/classes used only by tests (delete them, use them, "
        "or keep a test oracle with a '# <name> stays in src/ as ...' "
        "comment): " + ", ".join(orphans)
    )


if __name__ == "__main__":
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else REPO_ROOT
    print("\n".join(orphan_modules(root)) or "(no orphan modules)")
    print("\n".join(orphan_names(root)) or "(no orphan names)")
