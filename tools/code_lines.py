#!/usr/bin/env python3
"""Count OCaml code lines: .ml/.mli lines left non-blank once comments go.

Usage: python3 tools/code_lines.py PATH...

Each PATH is a directory (every .ml/.mli below it, recursively) or a
single file.  Prints one row per PATH and a total.  Comments nest, and
string literals ("...", {|...|}, {id|...|id}) and character literals
are skipped both outside and inside comments, as the OCaml lexer does,
so a "*)" inside a string never closes a comment.  A line counts when
anything but whitespace is left on it after the comments are removed.
"""

import os
import re
import sys

QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")
CHAR_LIT = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")


def strip_comments(src):
    """[src] with every comment replaced by spaces (newlines kept)."""
    out = []
    i, n, depth = 0, len(src), 0

    def keep(s):
        # inside a comment only the line breaks survive
        out.append(s if depth == 0 else "".join(c for c in s if c == "\n"))

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            keep(src[i : j + 1])
            i = j + 1
        elif c == "{" and QUOTED_OPEN.match(src, i):
            m = QUOTED_OPEN.match(src, i)
            close = "|" + m.group(1) + "}"
            j = src.find(close, m.end())
            j = n if j < 0 else j + len(close)
            keep(src[i:j])
            i = j
        elif c == "'" and CHAR_LIT.match(src, i):
            m = CHAR_LIT.match(src, i)
            keep(m.group(0))
            i = m.end()
        else:
            keep(c)
            i += 1
    return "".join(out)


def count_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = strip_comments(f.read())
    return sum(1 for line in text.split("\n") if line.strip())


def sources(path):
    if os.path.isfile(path):
        yield path
        return
    for root, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d != "_build" and not d.startswith("."))
        for name in sorted(files):
            if name.endswith((".ml", ".mli")):
                yield os.path.join(root, name)


def main(argv):
    if not argv:
        sys.stderr.write(__doc__)
        return 2
    rows = [(p, sum(count_file(f) for f in sources(p))) for p in argv]
    width = max(len(p) for p, _ in rows + [("total", 0)])
    for p, lines in rows:
        print(f"{p:<{width}}  {lines:>7}")
    if len(rows) > 1:
        print(f"{'total':<{width}}  {sum(l for _, l in rows):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
