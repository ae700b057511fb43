"""Count the code lines of the library, file by file.

A code line holds at least one token of code.  Blank lines, comment lines
and the docstrings of the module, its classes and its functions are left
out; a line that holds code and a comment counts.  This is the "code lines
by the ast count" that the roadmap's size items are judged by.  Usage:

    python benchmarks/code_lines.py
"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pdmorse"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:17s}: {count:5d}")
    print(f"{'total':17s}: {total:5d}")


if __name__ == "__main__":
    main()
