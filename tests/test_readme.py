"""The README's Python blocks run as written, and every expression whose
value a comment states ("# value" at the end of its line or on the next
line, optionally followed by ": remark") evaluates to that value."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _stated_value(lines, stmt):
    """(True, the value a comment states for `stmt`) or (False, None)."""
    tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
    following = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
    for text in (tail.strip(), following.strip()):
        if text.startswith("#"):
            return True, ast.literal_eval(text[1:].split(": ")[0].strip())
    return False, None


def test_readme_python_blocks_run_and_give_the_values_they_state():
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    checked = {}
    for block in blocks:
        namespace, lines = {}, block.split("\n")
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
            stated, want = _stated_value(lines, stmt)
            if stated:
                assert value == want, ast.unparse(stmt)
                checked[ast.unparse(stmt)] = want
    assert checked == {
        "plqstab.corpus_names()": ["example_3_2a", "example_3_2b",
                                   "example_3_3", "example_4_4",
                                   "example_6_2"],
        "(verdict.critical, verdict.xi)": (True, (1,)),
    }
