"""Size of the jetalg sources: ``cat src/jetalg/*.py | wc -l`` and a
tokenize split of those lines into code, docstring, comment and blank, in
total (the first two lines printed) and then one line per module.

    python3 tools/srcsize.py [DIR]

DIR defaults to ``src/jetalg`` next to this directory.  A line counts as
code when it holds any token but a comment or a docstring, else as
docstring when it lies inside one, else as comment when it holds one, else
as blank.  A docstring is a string literal that makes up a whole
statement.  Lines of other multi-line strings count as code.
"""

import glob
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def line_kinds(text):
    """Line number -> "code", "docstring", "comment" or "blank", for every
    line of one file."""
    kinds = {}  # line number -> set of token kinds on it
    toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
            if t.type != tokenize.NL]
    for n, tok in enumerate(toks):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif (tok.type == tokenize.STRING
              and (n == 0 or toks[n - 1].type in _LAYOUT)
              and toks[n + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            kind = "docstring"
        else:
            kind = "code"
        for row in range(tok.start[0], tok.end[0] + 1):
            kinds.setdefault(row, set()).add(kind)
    return {row: next((k for k in ("code", "docstring", "comment")
                       if k in kinds.get(row, ())), "blank")
            for row in range(1, len(text.splitlines()) + 1)}


def split(text):
    """{"code", "docstring", "comment", "blank"} -> line count of one file."""
    out = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for kind in line_kinds(text).values():
        out[kind] += 1
    return out


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "jetalg")
    total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    lines, modules = 0, []
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        n, counts = text.count("\n"), split(text)
        lines += n
        modules.append((os.path.basename(path), n, counts))
        for k, v in counts.items():
            total[k] += v
    print(f"lines {lines} (cat {os.path.relpath(root)}/*.py | wc -l)")
    print("  ".join(f"{k} {v}" for k, v in total.items()))
    for name, n, counts in modules:
        print(f"{name}: lines {n}  " + "  ".join(f"{k} {v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
