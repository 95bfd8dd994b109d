"""The package's imports run one way: states -> measures -> tomography -> witness -> cli."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pconcurrence"
LAYERS = ("states", "measures", "tomography", "witness", "cli")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _package_imports(node: ast.AST, nested: bool = False):
    """(imported module, line, nested) for each import of a package module below node.

    nested is True for an import inside a function or an `if TYPE_CHECKING` block.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom):
            if child.level and child.module:  # from .states import ...
                yield child.module.split(".")[0], child.lineno, nested
            elif child.level:  # from . import states
                yield from ((alias.name, child.lineno, nested) for alias in child.names)
            elif child.module and child.module.startswith("pconcurrence."):
                yield child.module.split(".")[1], child.lineno, nested
        elif isinstance(child, ast.Import):
            for alias in child.names:
                if alias.name.startswith("pconcurrence."):
                    yield alias.name.split(".")[1], child.lineno, nested
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
            isinstance(child, ast.If) and _is_type_checking(child.test)
        )
        yield from _package_imports(child, nested or inner)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_run_one_way_at_module_level():
    violations = []
    for rank, module in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for imported, line, nested in _package_imports(tree):
            if imported not in LAYERS[:rank]:
                violations.append(f"{module}.py:{line} imports {imported}, which is not an earlier layer")
            if nested:
                violations.append(f"{module}.py:{line} imports {imported} inside a function or TYPE_CHECKING block")
    assert not violations, "\n".join(violations)


def test_a_pairing_search_from_the_cli_imports_no_scipy(tmp_path):
    # The runtime needs numpy only: importing scipy.optimize alone took
    # several times the package's start-up and kept ~30 000 more objects
    # alive for the garbage collector to rescan.
    code = (
        "import sys\n"
        "from pconcurrence import make_max_entangled, save_state\n"
        "from pconcurrence.cli import main\n"
        "save_state('max4.json', make_max_entangled(4))\n"
        "assert main(['witness', 'max4.json', '--pairing', 'search']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == ["pconcurrence", "(assignment)", "1.00"], result.stdout
