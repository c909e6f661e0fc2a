"""Source hygiene: no module of the package or of the tests imports a
name it never uses (the package's `__init__.py` is exempt, because its
imports are the public API it re-exports), the test oracles take from the
package only the model inputs they need, importing the package loads
NumPy and the standard library only, and a parallel map starts no process
pool."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in [*(ROOT / "src" / "qstatwork").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by import statements of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_unused_import():
    assert unused_imports("import os\nimport math as m\nfrom a import b\nm.pi\n") == [
        (1, "os"), (3, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> list:
    """(module, name) of each import in `source` from qstatwork; the name
    is empty for a plain `import qstatwork...`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "qstatwork":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names
                      if alias.name.partition(".")[0] == "qstatwork"]
    return found


def private_package_imports(source: str) -> list:
    """(module, name) of each import in `source` of an underscore-prefixed
    module or name of qstatwork."""
    return [(module, name) for module, name in package_imports(source)
            if "._" in f"{module}.{name}"]


def test_detects_private_package_import():
    assert private_package_imports(
        "import qstatwork._quad\nfrom qstatwork import dynamics, _quad\n"
        "from qstatwork.hilbert import _spin_xyz, thermal_state\nfrom os import _exit\n"
    ) == [("qstatwork._quad", ""), ("qstatwork", "_quad"), ("qstatwork.hilbert", "_spin_xyz")]


def test_detects_package_import():
    assert package_imports(
        "import qstatwork as qw\nfrom qstatwork.dynamics import run_cycle\nimport os\n"
    ) == [("qstatwork", ""), ("qstatwork.dynamics", "run_cycle")]


# What the oracles may take from the package: model inputs, no code that
# builds an operator or a state or propagates one
ORACLE_PACKAGE_IMPORTS = {("qstatwork", "Impulse"), ("qstatwork", "g_of_t"),
                          ("qstatwork.sweeps", "_direct_moment")}


def test_oracles_import_only_model_inputs():
    found = set(package_imports((ROOT / "tests" / "oracles.py").read_text()))
    assert found <= ORACLE_PACKAGE_IMPORTS, found - ORACLE_PACKAGE_IMPORTS


def test_oracles_import_no_private_package_name():
    # an oracle checks the package from outside: it may use the public API,
    # and `sweeps._direct_moment`, whose docstring says why
    found = private_package_imports((ROOT / "tests" / "oracles.py").read_text())
    assert found == [("qstatwork.sweeps", "_direct_moment")]


def test_import_loads_no_scipy_or_mpmath():
    # SciPy and mpmath are test dependencies: the package must not load
    # them.  Nor may it load the process-pool machinery, which no module
    # of it uses (`sweeps.parallel_map` forks its own children, see the
    # test below), or numpy.polynomial, which the default quadrature order
    # does not need.
    probe = ("import sys, qstatwork; qstatwork._quad._gl_nodes(16); "
             "print(sorted(m for m in sys.modules if "
             "m.partition('.')[0] in ('scipy', 'mpmath', 'multiprocessing') "
             "or m == 'concurrent.futures.process' or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_parallel_map_loads_no_process_pool():
    # a map on two processes forks its child itself: it loads neither
    # multiprocessing nor concurrent.futures, which cost a pool's start-up
    probe = ("import sys, qstatwork.sweeps as sw; "
             "assert sw.parallel_map(abs, range(-4, 4), workers=2) == [4, 3, 2, 1, 0, 1, 2, 3]; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
