import ast
from pathlib import Path

import simplexalg


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library invariants must raise
    package = Path(simplexalg.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
