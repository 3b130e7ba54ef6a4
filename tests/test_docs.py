"""The README's quick start, its code names and every module's ``__all__`` stay
true to the code."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import etalloc
from etalloc.engine import STRATEGIES

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


def _members(obj):
    """Attribute names of ``obj``, counting dataclass fields without a default."""
    return set(dir(obj)) | set(getattr(obj, "__dataclass_fields__", ()))


def test_readme_names_only_code_that_exists():
    modules = [etalloc] + [importlib.import_module(f"etalloc.{m.name}")
                           for m in pkgutil.iter_modules(etalloc.__path__)]
    known = set(STRATEGIES) | {"least_task_count"}  # a field of `etalloc zwr`'s output
    for module in modules:
        known |= _members(module)
        known |= {name for value in vars(module).values() if inspect.isclass(value)
                  for name in _members(value)}
    stale = []
    # A name is a dotted identifier, perhaps shown with its call's arguments.
    for name in re.findall(r"`([A-Za-z_][\w.]*)(?:\(.*?\))?`", README.read_text()):
        if "_" not in name:
            continue
        *path, last = name.removeprefix("etalloc.").split(".")
        owner = etalloc
        try:
            for part in path:
                owner = getattr(owner, part)
        except AttributeError:
            stale.append(name)
            continue
        if last not in (_members(owner) if path else known):
            stale.append(name)
    assert stale == []
