"""Bit-identity check: do the working tree and a git ref print the same?

Extracts ``REF`` (any commit-ish, e.g. ``HEAD~1``) into a temporary
directory with ``git archive``, runs the same commands in that copy and
in the working tree, and compares their stdout and stderr byte for byte:

* ``repro-uasn all --quick --no-cache``
* ``repro-uasn fig6 --quick --workers 2 --no-cache``
* ``repro-uasn ablations --quick --workers 2 --no-cache`` (several plans
  deduped into one pooled cell set)
* ``repro-uasn chaos --quick --workers 2 --no-cache``
* every ``examples/*.py`` of the working tree (mobile deployments, a
  batch drain, energy, the extra-communication trace)

Every figure number, table and trace line these print is deterministic,
so a change meant to leave results alone must reproduce them exactly.
Exits 0 when every command matches, 1 on any difference (printing a
unified diff of the first differing lines), 2 on bad usage.  Run from the
repo root::

    python scripts/output_diff.py HEAD~1

``git archive`` exports the committed tree only, so the working tree's
uncommitted edits are what is compared against ``REF``.  The extracted
copy lives under ``$TMPDIR`` and is removed afterwards.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

CLI = ["-m", "repro.experiments.cli"]

#: ``(label, argv after the interpreter)`` of every compared command.
COMMANDS: Tuple[Tuple[str, List[str]], ...] = (
    ("all", CLI + ["all", "--quick", "--no-cache"]),
    ("fig6", CLI + ["fig6", "--quick", "--workers", "2", "--no-cache"]),
    ("ablations", CLI + ["ablations", "--quick", "--workers", "2", "--no-cache"]),
    ("chaos", CLI + ["chaos", "--quick", "--workers", "2", "--no-cache"]),
) + tuple(
    (example.stem, [f"examples/{example.name}"])
    for example in sorted((ROOT / "examples").glob("*.py"))
)

#: Lines of context and at most this many diff lines per stream.
DIFF_CONTEXT = 2
DIFF_LINES = 40


def export_ref(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` (raises on a bad ref)."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run(tree: Path, argv: Sequence[str], scratch: Path) -> Tuple[bytes, bytes, int]:
    """Run ``argv`` with ``tree``'s sources; return stdout, stderr, exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    # --no-cache already keeps results out of any cache; point the default
    # location at scratch as well so neither tree can read the other's.
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tree, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return proc.stdout, proc.stderr, proc.returncode


def stream_diff(name: str, ref_out: bytes, new_out: bytes) -> List[str]:
    """Unified diff lines of two byte streams (empty when identical)."""
    if ref_out == new_out:
        return []
    lines = list(
        difflib.unified_diff(
            ref_out.decode(errors="replace").splitlines(),
            new_out.decode(errors="replace").splitlines(),
            f"{name} (ref)", f"{name} (working tree)", n=DIFF_CONTEXT, lineterm="",
        )
    )
    # Streams that differ only in bytes splitlines() hides (line endings,
    # a trailing newline) still differ.
    return lines[:DIFF_LINES] or [f"{name}: streams differ in line endings or trailing bytes"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git commit-ish to compare the working tree against")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="output-diff-"))
    try:
        ref_tree = scratch / "ref"
        ref_tree.mkdir()
        try:
            export_ref(args.ref, ref_tree)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {args.ref!r}: {exc.stderr.decode(errors='replace').strip()}")
            return 2
        differing = 0
        for label, command in COMMANDS:
            ref_result = run(ref_tree, command, scratch)
            new_result = run(ROOT, command, scratch)
            report = stream_diff(f"{label} stdout", ref_result[0], new_result[0])
            report += stream_diff(f"{label} stderr", ref_result[1], new_result[1])
            if ref_result[2] != new_result[2]:
                report.append(f"{label}: exit code {ref_result[2]} at ref, {new_result[2]} now")
            if report:
                differing += 1
                report.insert(0, f"DIFFERS  {label}")
            else:
                report = [f"same     {label} ({len(new_result[0])} stdout bytes)"]
            print("\n".join(report), flush=True)
        if differing:
            print(f"{differing} of {len(COMMANDS)} commands differ from {args.ref}")
            return 1
        print(f"all {len(COMMANDS)} commands are byte-identical to {args.ref}")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
