#!/usr/bin/env python
"""Check that relative markdown links in the repo's documentation
resolve to real files, and that the files the prose names exist.

Scans README.md, EXPERIMENTS.md, DESIGN.md, ROADMAP.md and docs/*.md
for inline links (``[text](target)``) and bare code-span references to
markdown files (`` `docs/FOO.md` ``), and fails if any target does not
exist relative to the linking file or to the repo root. External
(``http(s)://``) and pure-anchor (``#...``) targets are skipped; an
anchor suffix on a file target is stripped before the existence check.

The same documents, except ROADMAP.md (which names planned files), are
also checked for code-span paths: every whitespace-separated word of a
code span (so commands such as `` `python tools/x.py --flag` `` count)
that starts with ``src/``, ``tools/``, ``benchmarks/``, ``tests/`` or
``perfbench/`` must exist under the repo root; one that starts with
``repro/`` under ``src/``; and one that starts with a subpackage name
(``core/``, ``analysis/``, ...) under ``src/repro/``. ``*`` globs must
match something; ``:LINE`` and ``::Test`` suffixes are ignored.

Run from anywhere: ``python tools/check_links.py``. Exit code 0 when
every link and path resolves, 1 otherwise (one line per broken one).
Uses only the standard library so CI needs no extra installs.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation scanned for links.
DOC_FILES = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md"]
DOC_GLOBS = ["docs/*.md"]
#: Scanned for links only: the roadmap names files that do not exist yet.
NO_PATH_CHECK = {"ROADMAP.md"}
#: Code-span path prefixes resolved against the repo root.
ROOT_DIRS = ("src", "tools", "benchmarks", "tests", "perfbench")
PACKAGE = REPO_ROOT / "src" / "repro"

INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: `docs/FOO.md`-style prose references (optionally with a section
#: suffix such as "DESIGN.md §2" — the suffix sits outside the span).
CODE_SPAN_REF = re.compile(r"`([A-Za-z0-9_./-]+\.md)`")
CODE_SPAN = re.compile(r"`([^`]+)`")
PATH_WORD = re.compile(r"[A-Za-z0-9_.*-]+(?:/[A-Za-z0-9_.*-]*)+")


def iter_doc_files() -> list:
    files = [REPO_ROOT / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return [f for f in files if f.exists()]


def iter_prose_lines(text: str):
    """Yield (line_number, line) for every line outside fenced code."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def iter_targets(text: str):
    """Yield (line_number, target) for every checkable reference."""
    for lineno, line in iter_prose_lines(text):
        for match in INLINE_LINK.finditer(line):
            yield lineno, match.group(1)
        for match in CODE_SPAN_REF.finditer(line):
            yield lineno, match.group(1)


def iter_code_paths(text: str):
    """Yield (line_number, path) for every code-span word that names a
    file or directory under a checked prefix."""
    for lineno, line in iter_prose_lines(text):
        for span in CODE_SPAN.finditer(line):
            for word in span.group(1).split():
                word = word.split("::", 1)[0]
                word = re.sub(r":\d+$", "", word).rstrip(",;.)")
                if PATH_WORD.fullmatch(word) and path_base(word) is not None:
                    yield lineno, word


def path_base(word: str):
    """The directory a code-span path is relative to, or None when its
    first component is not a checked prefix."""
    head = word.split("/", 1)[0]
    if head in ROOT_DIRS:
        return REPO_ROOT
    if head == "repro":
        return REPO_ROOT / "src"
    if head and (PACKAGE / head).is_dir():
        return PACKAGE
    return None


def path_exists(word: str) -> bool:
    base = path_base(word)
    if "*" in word:
        return any(base.glob(word))
    return (base / word).exists()


def resolve(doc: Path, target: str) -> bool:
    """True if `target` names a real file, relative to the linking
    document's directory or to the repo root."""
    path = target.split("#", 1)[0]
    if not path:  # pure anchor
        return True
    candidates = [doc.parent / path, REPO_ROOT / path]
    return any(c.exists() for c in candidates)


def main() -> int:
    broken = []
    for doc in iter_doc_files():
        text = doc.read_text(encoding="utf-8")
        for lineno, target in iter_targets(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not resolve(doc, target):
                rel = doc.relative_to(REPO_ROOT)
                broken.append(f"{rel}:{lineno}: broken link -> {target}")
        if doc.name in NO_PATH_CHECK and doc.parent == REPO_ROOT:
            continue
        for lineno, path in iter_code_paths(text):
            if not path_exists(path):
                rel = doc.relative_to(REPO_ROOT)
                broken.append(f"{rel}:{lineno}: missing file -> {path}")
    for line in broken:
        print(line, file=sys.stderr)
    if broken:
        print(f"{len(broken)} broken reference(s)", file=sys.stderr)
        return 1
    print(f"checked {len(iter_doc_files())} documents: all links and paths resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
