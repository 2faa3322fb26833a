"""Count the package's code lines, its lines and its public names.

    python tools/code_lines.py

Prints, for each module of src/jacobiscatter and in total, its code lines
and its lines as wc -l counts them, then the number of names in the
package's __all__.  A code line holds a token other than a comment,
outside docstrings, as the standard library's tokenize reads it: blank
lines, comment lines and a docstring's lines do not count, and each line
of a statement continued over several lines does.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jacobiscatter"
# tokens that hold no code: comments and the layout tokenize adds
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The lines of source holding a token other than a comment, outside docstrings."""
    # where each docstring starts: the string token that is the first
    # statement of a module, class or function body
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def names_in_all(source: str) -> int:
    """The length of the list assigned to __all__ in source."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(ast.literal_eval(node.value))
    raise ValueError("no __all__ assignment")


def main() -> None:
    total_code = total_lines = 0
    print(f"{'module':<16} {'code':>6} {'lines':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, lines = code_lines(text), text.count("\n")
        total_code += code
        total_lines += lines
        print(f"{path.name:<16} {code:>6} {lines:>6}")
    print(f"{'total':<16} {total_code:>6} {total_lines:>6}")
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    print(f"__all__: {names_in_all(init)} names")


if __name__ == "__main__":
    main()
