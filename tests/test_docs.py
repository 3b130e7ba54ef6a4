"""The README's quick start and every module's ``__all__`` stay true to the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import etalloc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_gives_its_commented_values():
    source = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(),
                       re.S).group(1)
    lines = source.splitlines()
    seen = []  # (last line, value) of every expression statement, in run order

    class Record(ast.NodeTransformer):
        def visit_Expr(self, node):
            call = ast.Call(ast.Name("_record", ast.Load()),
                            [ast.Constant(node.end_lineno), node.value], [])
            return ast.copy_location(ast.Expr(call), node)

    code = ast.fix_missing_locations(Record().visit(ast.parse(source)))
    namespace = {"_record": lambda line, value: seen.append((line, value))}
    exec(compile(code, str(README), "exec"), namespace)

    assert len(seen) == 5
    for line, value in seen:
        assert lines[line - 1].split("#", 1)[1].strip().startswith(repr(value)), line
    assert namespace["old_waste"] == 12
    assert namespace["outcome"].total_waste == 0
    assert [value for _, value in seen[:3]] == [0, True, (2,)]
    probe = seen[-1][1]
    assert 1 + sum(ok for ok, _ in probe.values()) == 50


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(etalloc.__path__)])
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"etalloc.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
