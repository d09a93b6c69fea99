"""Count a package's code apart from its prose: python3 tools/code_lines.py src/dstl

Per module and in total: wc -l, then docstring, comment, blank and code lines
(a comment line holds a comment alone), then a sha256 of the module's ast.dump
with every module, class and function docstring stripped, which no docstring,
comment or formatting edit changes."""

import ast
import hashlib
import sys
from pathlib import Path


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text):
    """(lines, docstring, comment, blank, code) line counts and the digest."""
    tree, lines, doc = ast.parse(text), text.splitlines(), set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body.pop(0)
            doc.update(range(first.lineno, first.end_lineno + 1))
    rest = [ln.strip() for i, ln in enumerate(lines, 1) if i not in doc]
    comment, blank = sum(ln.startswith("#") for ln in rest), rest.count("")
    digest = hashlib.sha256(ast.dump(tree).encode()).hexdigest()
    return (len(lines), len(doc), comment, blank, len(rest) - comment - blank), digest


def main(root):
    heads = ("lines", "doc", "comment", "blank", "code")
    print(f"{'module':<14}" + "".join(f"{h:>8}" for h in heads) + "  sha256 of the code")
    total = [0] * 5
    for path in sorted(Path(root).glob("*.py")):
        counts, digest = count(path.read_text(encoding="utf-8"))
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:<14}" + "".join(f"{c:>8}" for c in counts) + f"  {digest}")
    print(f"{'total':<14}" + "".join(f"{c:>8}" for c in total))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/dstl")
