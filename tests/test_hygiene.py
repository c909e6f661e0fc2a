"""Source hygiene: no module of the package or of the tests imports a
name it never uses (the package's `__init__.py` is exempt, because its
imports are the public API it re-exports), every function and class the
package defines is used by the package or exported, every parameter of
its functions is read (one listed exception), the test oracles
take from the package only the model inputs they need, importing the
package loads NumPy and the standard library only, a parallel map starts
no process pool, the benchmark's tracer still runs on the package, and
the README's module map names the package's modules and its table of
config fields the fields of the schema."""

import ast
import collections
import importlib
import importlib.util
import os
import pathlib
import re
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


def referenced_names(node) -> set:
    """The names `node` reads: bare names, attributes and the names its
    `from ... import` statements take."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def units(node) -> list:
    """The parts of a module-level statement that count as separate
    readers: a class splits into its decorators, bases, keywords and the
    statements of its body, so that one method calling another is a use;
    any other statement is one unit."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords, *node.body]


def unreferenced_definitions(sources: dict) -> list:
    """(module, name) of each module-level function or class, and
    (module, class.method) of each method or property other than a dunder,
    of `sources` ({module: source}) that no other statement of any of them
    reads: a name that only its own definition, or only the tests, use.
    An import in `__init__` counts as a use, since the package exports
    that name.  Methods are matched by name alone, so a name that any
    class reads counts as a use of every method of that name."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    uses = collections.Counter(name for _, node in statements for unit in units(node)
                               for name in referenced_names(unit))
    found = []
    for module, node in statements:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if uses[node.name] == sum(node.name in referenced_names(u) for u in units(node)):
                found.append((module, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(module, f"{node.name}.{m.name}") for m in node.body
                      if isinstance(m, FUNCTIONS) and not m.name.startswith("__")
                      and uses[m.name] == (m.name in referenced_names(m))]
    return found


def test_detects_unreferenced_definition():
    assert unreferenced_definitions({
        "a": "def f(n):\n    return f(n - 1)\ndef g():\n    pass\nclass C:\n    pass\n",
        "b": "from .a import g\ndef h():\n    return C()\n",
        "__init__": "from .b import h\n",
    }) == [("a", "f")]


def test_detects_unreferenced_method():
    # used: a method another method calls, a property read elsewhere and
    # dunders; unused: a method only its own body reads
    assert unreferenced_definitions({
        "a": "class C:\n    def __init__(self):\n        self.x = self.f()\n"
             "    def f(self):\n        return 1\n"
             "    @property\n    def p(self):\n        return 2\n"
             "    def g(self, n):\n        return self.g(n - 1)\n",
        "b": "from .a import C\ndef h():\n    return C().p\n",
        "__init__": "from .b import h\n",
    }) == [("a", "C.g")]


def test_package_defines_nothing_it_does_not_use():
    # a helper that only the tests call (a leftover of a removed code
    # path) belongs in the tests, not in the package
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "qstatwork").glob("*.py")}
    assert unreferenced_definitions(sources) == []


def unread_parameters(source: str) -> list:
    """(function, parameter) of each parameter of a function or method of
    `source`, nested ones included, that its body never reads; a method's
    self or cls counts as read."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, FUNCTIONS)
               and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.name, p.arg) for p in params[id(node) in methods:] if p.arg not in read]
    return found


def test_detects_unread_parameter():
    # read: a parameter a nested function or a lambda reads, self, *args
    # passed on; unread: a default nobody reads, a nested function's own
    # parameter, a static method's first, a parameter only written
    assert unread_parameters(
        "def f(a, b=1, *args, c, **kw):\n    g = lambda: a\n    return g(*args, **kw)\n"
        "def h(x):\n    def inner(y):\n        return x\n    return inner\n"
        "class C:\n    def m(self, z):\n        z = 1\n"
        "    @staticmethod\n    def s(w):\n        pass\n"
    ) == [("f", "b"), ("f", "c"), ("inner", "y"), ("m", "z"), ("s", "w")]


# perfbench/tracing.py passes `config`, which changes no block
UNREAD_PARAMETERS_ALLOWED = {("dynamics", "_build_sectors", "config")}


def test_every_parameter_is_read():
    # a parameter that its function never reads is an input that changes
    # nothing: the caller may set it and get the same result
    found = {(p.stem, *f) for p in (ROOT / "src" / "qstatwork").glob("*.py")
             for f in unread_parameters(p.read_text())}
    assert found == UNREAD_PARAMETERS_ALLOWED


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
        "from qstatwork.dynamics import _spin_xyz, run_cycle\nfrom os import _exit\n"
    ) == [("qstatwork._quad", ""), ("qstatwork", "_quad"), ("qstatwork.dynamics", "_spin_xyz")]


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
    # test below), or numpy.polynomial, whose Gauss-Legendre nodes the
    # quadrature holds as constants.
    probe = ("import sys, qstatwork; "
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


def test_benchmark_tracer_runs_on_the_package(monkeypatch):
    # perfbench/tracing.py, which `--trace 1` runs and which a change to
    # the package may not edit, calls dynamics._build_sectors(params,
    # stats, config) and reads these diagnostics of run_cycle
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)      # for its dataclasses
    spec.loader.exec_module(tracing)
    for name in tracing.LAYERS:                 # the benchmark loads every layer
        importlib.import_module(f"qstatwork.{name}")
    import qstatwork as qw
    from qstatwork import dynamics

    p = qw.EngineParams(N=2, Omega0=1.0, Delta=0.5, v=0.2, T=2.5, beta_c=1.0, beta_h=0.125)
    with tracing.Tracer() as tracer:
        for schedule in (qw.SmoothPlateau(g=0.1, delta_t=0.9, alpha=2142.0 / 2.5, T=2.5),
                         qw.Impulse(g=0.01, t1=0.4, T=2.5)):
            dynamics.run_cycle(p, schedule, qw.harmonic_system(0.3, 8),
                               qw.Statistics.DISTINGUISHABLE)
    counts = {s.name: s.counts for s in tracer.spans}
    health = {"unitarity_residual", "trace_drift", "leakage"}
    assert counts["dynamics.run_cycle.smooth"].keys() == health | {"sector_steps"}
    assert counts["dynamics.run_cycle.smooth"]["sector_steps"] > 0
    assert counts["dynamics.run_cycle.impulse"].keys() == health


def module_map(readme: str) -> set:
    """The modules named in the README's module map: each `name` followed
    by its description in parentheses, in the paragraph opening
    'Module map:'."""
    start = readme.index("Module map:")
    paragraph = readme[start:readme.find("\n\n", start)]
    return set(re.findall(r"`(\w+)` \(", paragraph))


def test_readme_module_map_names_every_module():
    # the private quadrature and the `python -m` entry point are left out
    modules = {p.stem for p in (ROOT / "src" / "qstatwork").glob("*.py")}
    assert module_map((ROOT / "README.md").read_text()) == (
        modules - {"__init__", "__main__", "_quad"})


def config_table(readme: str) -> dict:
    """{section.field: (flag or None, read by)} of each row of the README's
    table of config fields, the table following the paragraph opening
    'Config fields'."""
    start = readme.index("| Field |", readme.index("Config fields"))
    rows = {}
    for line in readme[start:readme.find("\n\n", start)].splitlines()[2:]:
        field, _, _, flag, read_by = (cell.strip() for cell in line.strip("|").split("|"))
        rows[field.strip("`")] = (None if flag == "none" else flag.strip("`"), read_by)
    return rows


def test_readme_config_table_names_every_field():
    # each field's flag, and what reads it: for a coupling field the kinds
    # that read it, for any other the sweep task
    from qstatwork.sweeps import _FIELDS, _READS

    def read_by(name):
        return (", ".join(kind for kind in ("impulse", "plateau") if name in _READS[kind])
                or next(task for task in ("work", "fermi") if name.startswith(_READS[task])))

    assert config_table((ROOT / "README.md").read_text()) == {
        f"{section}.{key}": (flag, read_by(f"{section}.{key}"))
        for section, fields in _FIELDS.items() for key, (_, _, flag) in fields.items()}
