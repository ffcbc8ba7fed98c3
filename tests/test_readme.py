"""Run the README's library quick start and check what its comments say.

Every statement of the block runs in order.  Each bare expression's
comment starts with the literal it evaluates to ('1000', True, …), and
the expression must equal that literal.
"""

import ast
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")
LITERAL = re.compile(r"#\s*('[^']*'|True|False|\d+)")


def _quick_start() -> str:
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"## Quick start \(library\)\s*```python\n(.*?)```",
                      text, re.S)
    assert block, "README has no library quick start"
    return block.group(1)


def test_quick_start_expressions_equal_their_comments():
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        comment = LITERAL.search(lines[node.end_lineno - 1])
        assert comment, lines[node.lineno - 1]
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        assert value == ast.literal_eval(comment.group(1)), \
            lines[node.lineno - 1]
        checked += 1
    assert checked == 8
