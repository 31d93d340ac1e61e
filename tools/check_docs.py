#!/usr/bin/env python
"""Documentation checks: link/path integrity, snippets, docstrings.

Three modes, combinable (CI's docs job runs all of them):

``--links``
    Scans the repository's Markdown files and verifies that
    (a) every relative Markdown link ``[text](path)`` resolves to a
    real file or directory, and (b) every inline-code repo path token
    (```src/...``, ``docs/...``, ``tests/...``, ``benchmarks/...``,
    ``examples/...``, ``tools/...``, ``.github/...``, or a root-level
    ``*.md`` / ``*.txt``) points at something that exists. Paths that
    describe external material (PAPER.md, PAPERS.md, SNIPPETS.md,
    ISSUE.md, CHANGES.md) are exempt, as are glob-style tokens.

``--snippets``
    Executes every ```` ```python ```` fenced block in README.md in a
    fresh namespace, then runs the quick example scripts end to end —
    the documentation's code must keep working, not just parse.

``--docstrings``
    Walks the operator-facing packages (``src/repro/shard/``,
    ``src/repro/policy/``, ``src/repro/protocol/``) and modules
    (``procpool.py``, ``lifecycle/flavors.py``) and fails on any
    *public* module, class, function or method without a docstring.
    Underscore-prefixed names and dunders other than ``__init__``'s
    enclosing class are skipped — the contract is that everything an
    operator can reach by name explains itself.

Exit status is non-zero on any failure; findings are printed one per
line as ``file: problem``.
"""

from __future__ import annotations

import argparse
import ast
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files whose path-like tokens describe *external* artifacts
#: (the paper, related repos, the per-PR task) rather than this repo.
PATH_CHECK_EXEMPT = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md",
                     "CHANGES.md"}

#: First path segment that marks an inline-code token as a repo path.
REPO_DIRS = {"src", "docs", "tests", "benchmarks", "examples", "tools",
             ".github"}

#: Extensions that mark a slash-less token as a root-level repo file.
ROOT_FILE_SUFFIXES = (".md", ".txt")

#: Examples fast enough for a CI smoke run (wall seconds each).
QUICK_EXAMPLES = ("quickstart.py", "fault_tolerance.py", "covert_channel_detection.py")

#: Packages (directories) or single modules whose public API must be
#: fully docstring-covered.
DOCSTRING_PACKAGES = ("src/repro/shard", "src/repro/policy",
                      "src/repro/protocol", "src/repro/common/procpool.py",
                      "src/repro/lifecycle/flavors.py")

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
INLINE_CODE = re.compile(r"`([^`\n]+)`")
FENCED_BLOCK = re.compile(r"^```")


def _markdown_files() -> list[Path]:
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(REPO_ROOT.glob("docs/*.md"))
    return [path for path in files if path.is_file()]


def _strip_fenced_blocks(text: str) -> str:
    """Drop fenced code blocks — shell transcripts are not doc claims."""
    kept: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if FENCED_BLOCK.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            kept.append(line)
    return "\n".join(kept)


def _is_repo_path_token(token: str) -> bool:
    if any(ch in token for ch in "*{}$ <>"):
        return False
    if token.startswith(("/", "-")):
        return False
    if "/" in token:
        return token.split("/", 1)[0] in REPO_DIRS
    return token.endswith(ROOT_FILE_SUFFIXES)


def check_links() -> list[str]:
    problems: list[str] = []
    for path in _markdown_files():
        rel = path.relative_to(REPO_ROOT)
        text = path.read_text(encoding="utf-8")
        prose = _strip_fenced_blocks(text)

        for match in MARKDOWN_LINK.finditer(prose):
            target = match.group(1).split("#", 1)[0]
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(f"{rel}: broken link -> {match.group(1)}")

        if rel.name in PATH_CHECK_EXEMPT:
            continue
        for match in INLINE_CODE.finditer(prose):
            token = match.group(1).split("::", 1)[0].strip()
            if not _is_repo_path_token(token):
                continue
            if not (REPO_ROOT / token.rstrip("/")).exists():
                problems.append(f"{rel}: missing repo path -> {token}")
    return problems


def _python_blocks(text: str) -> list[str]:
    blocks: list[str] = []
    lines = text.splitlines()
    block: list[str] | None = None
    for line in lines:
        stripped = line.strip()
        if block is None and stripped.startswith("```python"):
            block = []
        elif block is not None and stripped.startswith("```"):
            blocks.append("\n".join(block))
            block = None
        elif block is not None:
            block.append(line)
    return blocks


def check_snippets() -> list[str]:
    problems: list[str] = []
    sys.path.insert(0, str(REPO_ROOT / "src"))

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for index, block in enumerate(_python_blocks(readme)):
        print(f"running README.md python block #{index}...")
        try:
            exec(compile(block, f"README.md#block{index}", "exec"), {})
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"README.md: python block #{index} failed: {exc!r}")

    for name in QUICK_EXAMPLES:
        script = REPO_ROOT / "examples" / name
        print(f"running examples/{name}...")
        completed = subprocess.run(
            [sys.executable, str(script)],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=600,
        )
        if completed.returncode != 0:
            tail = completed.stderr.strip().splitlines()[-5:]
            problems.append(
                f"examples/{name}: exit {completed.returncode}: "
                + " | ".join(tail)
            )
    return problems


def _public_defs(tree: ast.Module):
    """Yield (qualname, node) for every public def/class in a module.

    Nested helper functions (defs inside function bodies) are private
    by construction; only module- and class-level names are public API.
    """
    def walk(node, prefix: str, inside_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if name.startswith("_") and not (
                    inside_class and name == "__init__"
                ):
                    continue
                qualname = f"{prefix}{name}"
                if inside_class and name == "__init__":
                    # documented classes may leave __init__ bare — the
                    # class docstring covers construction
                    continue
                yield qualname, child
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, qualname + ".", True)

    yield from walk(tree, "", False)


def check_docstrings() -> list[str]:
    problems: list[str] = []
    for package in DOCSTRING_PACKAGES:
        root = REPO_ROOT / package
        if root.is_file():
            paths = [root]
        elif root.is_dir():
            paths = sorted(root.rglob("*.py"))
        else:
            problems.append(f"{package}: docstring-checked package missing")
            continue
        for path in paths:
            rel = path.relative_to(REPO_ROOT)
            tree = ast.parse(path.read_text(encoding="utf-8"), str(rel))
            if ast.get_docstring(tree) is None:
                problems.append(f"{rel}: module has no docstring")
            for qualname, node in _public_defs(tree):
                if ast.get_docstring(node) is None:
                    kind = ("class" if isinstance(node, ast.ClassDef)
                            else "function")
                    problems.append(
                        f"{rel}: public {kind} {qualname!r} "
                        f"(line {node.lineno}) has no docstring"
                    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--links", action="store_true",
                        help="check Markdown links and repo path tokens")
    parser.add_argument("--snippets", action="store_true",
                        help="run README python blocks and quick examples")
    parser.add_argument("--docstrings", action="store_true",
                        help="require docstrings on the public API of "
                             + " and ".join(DOCSTRING_PACKAGES))
    args = parser.parse_args()
    if not (args.links or args.snippets or args.docstrings):
        parser.error(
            "pick at least one of --links / --snippets / --docstrings"
        )

    problems: list[str] = []
    if args.links:
        problems += check_links()
    if args.snippets:
        problems += check_snippets()
    if args.docstrings:
        problems += check_docstrings()

    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
        return 1
    print("documentation checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
