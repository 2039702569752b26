"""Print the code-line count of the given Python files: the lines that hold
a token other than a comment, less the lines of module, class and function
docstrings.  Blank, comment and docstring lines do not count.

Usage: python scripts/code_lines.py FILE...
"""

import ast
import io
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(paths) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            total += code_lines(handle.read())
    print(f"{total} code lines (no blank, comment or docstring lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
