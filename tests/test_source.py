"""Checks over the package's own source."""

import ast
from pathlib import Path

import wmcvar


def test_no_assert_statements():
    # python -O strips assert statements, so no check in the package may
    # be one: raise a typed error instead
    paths = sorted(Path(wmcvar.__file__).parent.rglob('*.py'))
    assert len(paths) > 5
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        found += ['%s:%d' % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
