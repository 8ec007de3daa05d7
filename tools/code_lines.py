"""Count the code lines of Python files: lines that hold a token other than
a comment or a module, class or function docstring.  Blank lines hold none.

    python tools/code_lines.py PATH...

Each PATH is a ``.py`` file or a directory searched for them.  Prints the
count of each file and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the file at ``path``."""
    source = path.read_bytes()
    lines = {row for token in tokenize.tokenize(io.BytesIO(source).readline)
             if token.type not in _LAYOUT
             for row in range(token.start[0], token.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = [Path(arg) for arg in argv]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    files = sorted(file for path in paths
                   for file in ([path] if path.is_file() else path.rglob("*.py")))
    total = 0
    for file in files:
        count = code_lines(file)
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
