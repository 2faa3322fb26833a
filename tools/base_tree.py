"""The base tree of a two-tree comparison, for the scripts in tools/.

BASE is a source checkout, given as a directory, or a git revision of
this repository, which is checked out with ``git worktree`` into a
temporary directory and removed again afterwards.  Only that directory
and git's worktree records under .git/worktrees are written to, and the
records are pruned on start and on exit.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from typing import Iterator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True)


@contextlib.contextmanager
def base_tree(base: str, work: str, tool: str) -> Iterator[str]:
    """Yield the root of BASE's tree, checked out under work for a revision.

    Exits, naming tool, where base is neither a directory nor a revision.
    """
    if os.path.isdir(base):
        yield os.path.abspath(base)
        return
    try:
        revision = git("rev-parse", "--verify", base + "^{commit}").stdout.strip()
    except subprocess.CalledProcessError:
        sys.exit(f"{tool}: {base} is neither a directory nor a git revision")
    checkout = os.path.join(work, "base")
    # drop the record of a checkout that an earlier, killed run left behind
    git("worktree", "prune")
    git("worktree", "add", "--detach", checkout, revision)
    try:
        yield checkout
    finally:
        git("worktree", "remove", "--force", checkout)
        git("worktree", "prune")
