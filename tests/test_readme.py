"""The README's library quick tour runs as written.

The `python` block under "## Library quick tour" is executed statement by
statement.  An expression statement whose comment is a bare Python literal,
at the end of its last line (`x  # 5`) or alone on the line after it, is
checked against that literal; any other comment is prose and is not read.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under '## Library quick tour'"
    return match.group(1)


def _comments(source: str) -> dict:
    """{line: (comment text, whether the line holds only the comment)}"""
    comments = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            alone = not tok.line[: tok.start[1]].strip()
            comments[tok.start[0]] = (tok.string[1:].strip(), alone)
    return comments


def _literal(text: str):
    """The value of a comment that is a bare literal, else a sentinel."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return _PROSE


_PROSE = object()


def _expected(stmt, comments: dict):
    trailing = comments.get(stmt.end_lineno)
    if trailing is not None and not trailing[1]:
        return _literal(trailing[0])
    below = comments.get(stmt.end_lineno + 1)
    if below is not None and below[1]:
        return _literal(below[0])
    return _PROSE


def test_quick_tour_runs_and_prints_what_it_says():
    source = _quick_tour()
    comments = _comments(source)
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        snippet = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        expected = _expected(stmt, comments)
        if expected is not _PROSE:
            assert value == expected, snippet
            checked.append(snippet)
    # the tour's literal results: the codewords, the extended and Hamming
    # polynomials, three cardinalities and a method label
    assert len(checked) >= 7, checked
