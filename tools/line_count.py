"""Print the row of ROADMAP aim 2's line table for the working tree against a revision.

    python3 tools/line_count.py [REV]

REV (default ``HEAD``) is any git revision.  The working tree's ``src/`` files
ending in ``.py`` (Python) or ``.c`` (C) are counted as ``wc -l`` counts, by
newlines; REV's are read with ``git show REV:path``.  The row is

    | PR | Python | C | total | src ±N against REV: module ±n, ... |

with the PR number left for the reader to fill in and every module whose
count changed named by its stem (``_kernel`` for the C kernel), largest
change first; a module added or removed counts from or to zero.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = {".py": "Python", ".c": "C"}


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def counts_at(rev: str) -> dict:
    """{path: lines} of REV's ``src/`` files of a counted kind."""
    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src").decode().split()
    return {path: git("show", f"{rev}:{path}").count(b"\n")
            for path in paths if Path(path).suffix in KINDS}


def counts_here() -> dict:
    """{path: lines} of the working tree's ``src/`` files of a counted kind."""
    return {path.relative_to(ROOT).as_posix(): path.read_bytes().count(b"\n")
            for path in sorted((ROOT / "src").rglob("*"))
            if path.suffix in KINDS and "__pycache__" not in path.parts and path.is_file()}


def signed(n: int) -> str:
    return f"+{n:,}" if n > 0 else f"−{-n:,}" if n < 0 else "0"


def row(before: dict, after: dict, rev: str) -> str:
    """The table row of ``after`` (this tree) with its change from ``before`` (REV)."""
    totals = {kind: sum(n for path, n in after.items() if KINDS[Path(path).suffix] == kind)
              for kind in KINDS.values()}
    changes = sorted(((after.get(path, 0) - before.get(path, 0), Path(path).stem)
                      for path in before.keys() | after.keys()), key=lambda c: (-abs(c[0]), c[1]))
    named = ", ".join(f"{stem} {signed(n)}" for n, stem in changes if n)
    src = sum(after.values()) - sum(before.values())
    return (f"| PR | {totals['Python']:,} | {totals['C']:,} | {sum(after.values()):,} | "
            f"src {signed(src)} against {rev}" + (f": {named}" if named else "") + " |")


def main(argv: list) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    short = git("rev-parse", "--short", rev).decode().strip()
    print(row(counts_at(rev), counts_here(), short))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
