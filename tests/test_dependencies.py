import ast
import json
import os
import re
import subprocess
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


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, as "file:line name".  An
    import from __future__ is exempt, and so is an import statement one of
    whose lines is marked `# noqa: F401`."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        out += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in names if name not in read]
    return out


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted([*(ROOT / "src" / "euciso").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert [line for path in paths for line in unused_imports(path)] == []


FLOAT_FACTORING = {"normal_forms", "normal_forms_of", "normal_form", "_factor", "_match_f",
                   "section_q"}


def calls_outside(names: set[str], allowed: set[str]) -> list[str]:
    """The calls to any of these names, by bare name or attribute, in the
    package's modules but the allowed ones, as "file:line name"."""
    calls = []
    for path in sorted((ROOT / "src" / "euciso").glob("*.py")):
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    return calls


def test_float_factoring_stays_at_the_boundary():
    # the spec reader's checks, the m0 search and the presentation (groups)
    # and verify's oracles factor float q blocks; every other module works
    # on integer normal forms and ids.  An import is not a call, so an
    # import kept for perfbench's tracer does not count
    assert calls_outside(FLOAT_FACTORING, {"groups.py", "verify.py"}) == []


def test_only_reps_gathers_from_the_roots_of_unity():
    # every phase of a wave vector is one `reps.wave_phases` gather, so the
    # rep set's shifts, the labels' twisted classes and a lazy label's
    # induced stack read the same table the same way
    assert calls_outside({"roots_of_unity"}, {"reps.py"}) == []


def test_imports_are_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert imported_packages() == declared == {"numpy", "orjson"}


# verify, dual, split and a Fourier round trip through a table file, run in
# a fresh interpreter; numpy.ma is not among the modules they import
MA_FREE_RUN = """
import contextlib, io as text_io, json, sys
import numpy as np
from euciso import io
from euciso.cli import main
from euciso.fourier import PeriodicFunction, inverse_transform, transform
from euciso.groups import build_quotient
from euciso.catalog import CATALOG

with contextlib.redirect_stdout(text_io.StringIO()):
    codes = [main(["verify", "catalog:pg"]), main(["dual", "catalog:twistE8", "--N", "4"]),
             main(["split", "catalog:twistE8", "--m", "2", "--n", "3"])]
q = build_quotient(CATALOG["twistE8"].build(), 2)
u = PeriodicFunction.random(q, (2, 2), np.random.default_rng(0))
text = io.canonical_json(io.table_to_dict(transform(u)))
back = inverse_transform(io.table_from_dict(json.loads(text), q))
print(json.dumps([codes, u.max_abs_diff(back) < 1e-9, "numpy.ma" in sys.modules]))
"""


def test_the_commands_do_not_import_numpy_ma():
    # numpy.ma costs about 1.6 MB of memory on import; np.unique is one way in
    done = subprocess.run([sys.executable, "-c", MA_FREE_RUN], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, 0, 0], True, False]
