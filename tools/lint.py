#!/usr/bin/env python
"""Lint gate for ``make lint``: ruff > pyflakes > stdlib fallback.

The repo pins no lint dependency, so this script uses the best checker
the environment provides.  When neither ruff nor pyflakes is importable
(or on the PATH) it falls back to a dependency-free pass that compiles
every file (syntax errors) and flags unused imports via ``ast`` — the
two error classes that actually bite in a numpy-only codebase.

``__init__.py`` files are exempt from the unused-import check in the
fallback: their imports ARE the public re-export surface.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path


def _python_files(roots: list[str]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        path = Path(root)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            print(f"lint: skipping missing path {root}", file=sys.stderr)
    return files


def _try_external(roots: list[str]) -> int | None:
    """Run ruff or pyflakes if available; None means neither exists."""
    ruff = shutil.which("ruff")
    if ruff is not None:
        print("lint: using ruff")
        return subprocess.run([ruff, "check", *roots]).returncode
    try:
        import pyflakes  # noqa: F401
    except ImportError:
        return None
    print("lint: using pyflakes")
    return subprocess.run(
        [sys.executable, "-m", "pyflakes", *roots]
    ).returncode


def _import_bindings(node: ast.AST) -> list[tuple[str, int]]:
    """Names an import statement binds, with line numbers."""
    bindings = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bindings.append((name, node.lineno))
    elif isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return []
        for alias in node.names:
            if alias.name == "*":
                continue
            bindings.append((alias.asname or alias.name, node.lineno))
    return bindings


def _annotation_strings(tree: ast.AST):
    """String-literal annotations (used under ``from __future__ import
    annotations`` for names imported only under TYPE_CHECKING)."""
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            targets.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            targets.append(node.returns)
        for annotation in targets:
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                yield annotation.value


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for text in _annotation_strings(tree):
        try:
            used |= _used_names(ast.parse(text, mode="eval"))
        except SyntaxError:
            pass
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # "import a.b; a.b.c()" reaches the binding through `a`.
            target = node
            while isinstance(target, ast.Attribute):
                target = target.value
            if isinstance(target, ast.Name):
                used.add(target.id)
    # Strings in __all__ count as uses (re-export without reference).
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    for element in ast.walk(node.value):
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            used.add(element.value)
    return used


def _fallback_check_file(path: Path) -> list[str]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [f"{path}:{error.lineno}: syntax error: {error.msg}"]
    problems = []
    if path.name != "__init__.py":
        used = _used_names(tree)
        for node in ast.walk(tree):
            for name, lineno in _import_bindings(node):
                if name not in used:
                    line = source.splitlines()[lineno - 1]
                    if "noqa" in line:
                        continue
                    problems.append(
                        f"{path}:{lineno}: unused import {name!r}"
                    )
    return problems


def _fallback(roots: list[str]) -> int:
    print("lint: ruff/pyflakes unavailable; using stdlib AST fallback")
    problems = []
    for path in _python_files(roots):
        problems.extend(_fallback_check_file(path))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


#: path fragments that are build/run artifacts, never source: a tracked
#: match means someone `git add`-ed cache or output files (PR 7 shipped
#: 75 .pyc files this way).  Checked against `git ls-files`.
def _is_tracked_artifact(path: str) -> bool:
    if "__pycache__/" in path or path.endswith((".pyc", ".pyo")):
        return True
    # Root-level results/ is the default ResultStore target; the curated
    # golden outputs under benchmarks/results/ are tracked on purpose.
    if path.startswith("results/"):
        return True
    name = path.rsplit("/", 1)[-1]
    return name.startswith("BENCH_") and name.endswith(".tmp")


def check_tracked_artifacts(repo_root: Path = Path(".")) -> list[str]:
    """Fail if cache/output artifacts are committed to git.

    Artifacts regenerate on every run, so a tracked copy is pure diff
    noise that goes stale immediately — and .pyc files additionally pin
    one interpreter's bytecode.  Outside a git checkout (or without git
    on the PATH) the check skips silently: there is nothing tracked to
    police.
    """
    git = shutil.which("git")
    if git is None:
        return []
    proc = subprocess.run(
        [git, "-C", str(repo_root), "ls-files"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:  # not a git repo
        return []
    return [
        f"{repo_root / path}: tracked build artifact; `git rm --cached` it "
        "(and keep it in .gitignore)"
        for path in proc.stdout.splitlines()
        if _is_tracked_artifact(path)
    ]


def main(argv: list[str] | None = None) -> int:
    roots = (argv if argv is not None else sys.argv[1:]) or ["src", "tests"]
    code = _try_external(roots)
    if code is None:
        code = _fallback(roots)
    structural_problems = check_tracked_artifacts()
    for problem in structural_problems:
        print(problem)
    if structural_problems:
        code = code or 1
    if code == 0:
        print("lint: clean")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
