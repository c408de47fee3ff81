import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """The top-level modules the package's sources import from outside the
    standard library and the package itself."""
    names = set()
    for path in (ROOT / "src" / "euciso").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"euciso"}


def test_imports_are_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert imported_packages() == declared == {"numpy", "orjson"}
