#!/usr/bin/env python3
"""Count the non-test source lines of the workspace crates.

A counted line is a non-blank line of `crates/*/src/**/*.rs` whose first
non-space characters are not `//`. Items gated by `#[cfg(test)]` are not
counted: an inline item (a `mod tests { ... }`, a test-only `fn`) up to
its matching closing brace, and a file pulled in by `#[cfg(test)] mod x;`
(for example `checkpoint/tests.rs`) as a whole.

Usage: python3 scripts/src_lines.py [REPO_ROOT] [--files]

Prints the total; `--files` also prints each file's count, largest first
(before the total). Piping into `head` is fine: the script stops quietly
when its reader closes stdout.
"""

import os
import re
import sys
from pathlib import Path

CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
EXTERNAL_MOD = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def brace_delta(line):
    """Net `{` minus `}` on one line, ignoring strings, chars and comments."""
    depth, i, n = 0, 0, len(line)
    while i < n:
        c = line[i]
        if line.startswith("//", i):
            break
        if c == '"':
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
        elif c == "'":
            # A char literal ('x', '\n', '{'); a lifetime has no closing quote.
            end = line.find("'", i + 1)
            if end != -1 and (end - i <= 2 or line[i + 1] == "\\"):
                i = end
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        i += 1
    return depth


def module_dir(path):
    """The directory a file's `mod x;` children live in."""
    if path.name in ("lib.rs", "main.rs", "mod.rs"):
        return path.parent
    return path.parent / path.stem


def count_file(path, skipped):
    """Counted lines of one file; test-only child files go into `skipped`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    count, i = 0, 0
    while i < len(lines):
        if CFG_TEST.match(lines[i]):
            # Skip further attributes, then the gated item itself.
            i += 1
            while i < len(lines) and lines[i].strip().startswith("#["):
                i += 1
            if i >= len(lines):
                break
            m = EXTERNAL_MOD.match(lines[i])
            if m:
                skipped.add(module_dir(path) / f"{m.group(1)}.rs")
                skipped.add(module_dir(path) / m.group(1) / "mod.rs")
                i += 1
                continue
            depth, opened = 0, False
            while i < len(lines):
                d = brace_delta(lines[i])
                opened = opened or "{" in lines[i]
                depth += d
                i += 1
                if opened and depth <= 0:
                    break
                # A gated `use`, field or argument ends without a block.
                if not opened and lines[i - 1].rstrip().endswith((";", ",")):
                    break
            continue
        s = lines[i].strip()
        if s and not s.startswith("//"):
            count += 1
        i += 1
    return count


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    files = sorted(root.glob("crates/*/src/**/*.rs"))
    skipped, counts = set(), {}
    for f in files:
        counts[f] = count_file(f, skipped)
    total = 0
    for f in files:
        if f in skipped:
            counts.pop(f)
        else:
            total += counts[f]
    if "--files" in sys.argv:
        for f, c in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"{c:7} {f.relative_to(root)}")
    print(total)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed stdout early (`--files | head`): stop quietly,
        # and keep the interpreter's final flush off the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
