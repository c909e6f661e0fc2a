"""Source hygiene: no module of the package or of the tests imports a name
it never uses (the package's `__init__.py` is exempt, because its
imports are the public API it re-exports), every function and class the
package defines is used by the package or exported, every name it
exports is read by another of its modules or named by the benchmark,
every parameter of its functions is read (one listed exception), every
default of them or of its dataclass and NamedTuple fields is passed by
some call of the package or the benchmark (two listed exceptions), no
function or property of it only hands back an attribute or forwards its
parameters (a second name), the test oracles take from the package only
the model inputs they need, no module of the package reads the process
environment, importing the package loads NumPy and the standard library
only, a parallel map starts no process pool, the
benchmark's tracer still runs on the package, and the README's module
map names the package's modules, its table of config fields the fields
of the schema, and its library sketch runs."""

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


def exported_names(source: str) -> list:
    """The names an `__init__` source re-exports: those its `from ...
    import` statements bind."""
    return [alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def unreached_exports(sources: dict, named: set) -> list:
    """The names `sources["__init__"]` exports that are defined by another
    module of `sources` ({module: source}), read by no statement of any of
    those modules but their own definition, and not in `named`."""
    modules = {m: s for m, s in sources.items() if m != "__init__"}
    unread = {name for _, name in unreferenced_definitions(modules)}
    return sorted(n for n in exported_names(sources["__init__"])
                  if n in unread and n not in named)


def test_detects_unreached_export():
    # reached: a name another module calls, or one the benchmark names;
    # unreached: one only the export and its own recursion read
    assert unreached_exports({
        "a": "def f(n):\n    return f(n - 1)\ndef g():\n    pass\ndef k():\n    pass\n",
        "b": "from .a import g\ndef h():\n    return g()\n",
        "__init__": "from .a import f, g, k\nfrom .b import h\n",
    }, named={"k", "h"}) == ["f"]


def test_package_exports_only_what_it_reaches():
    # an exported function or class that no module of the package reads and
    # that the benchmark does not name is code that no command runs
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "qstatwork").glob("*.py")}
    named = {word for p in (ROOT / "perfbench").glob("*.py")
             for word in re.findall(r"\w+", p.read_text())}
    assert unreached_exports(sources, named) == []


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


def _signature(f, offset: int) -> tuple:
    """(positional names, keyword-only names, names with a default) of a
    function, its first `offset` positional parameters dropped."""
    a = f.args
    pos = [*a.posonlyargs, *a.args]
    defaulted = [*pos[len(pos) - len(a.defaults):],
                 *(p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)]
    return ([p.arg for p in pos][offset:], [p.arg for p in a.kwonlyargs],
            [p.arg for p in defaulted])


def _field_signature(cls):
    """The `__init__` signature, as `_signature` gives it, that a
    `@dataclass` or `NamedTuple` class builds from its annotated fields,
    or None for any other class."""
    named = lambda n: getattr(n, "id", None) or getattr(n, "attr", None)
    if not (any(named(getattr(d, "func", d)) == "dataclass" for d in cls.decorator_list)
            or any(named(b) == "NamedTuple" for b in cls.bases)):
        return None
    names, defaulted = [], []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        keywords = ({k.arg: k.value for k in stmt.value.keywords}
                    if isinstance(stmt.value, ast.Call) and named(stmt.value.func) == "field"
                    else None)
        if keywords is not None and getattr(keywords.get("init"), "value", True) is False:
            continue
        names.append(stmt.target.id)
        if (stmt.value is not None if keywords is None
                else {"default", "default_factory"} & keywords.keys()):
            defaulted.append(stmt.target.id)
    return names, [], defaulted


def unpassed_defaults(sources: dict, callers: list) -> list:
    """(module, function, parameter) of each parameter with a default of a
    module-level function or method of `sources` ({module: source}) that no
    call in the `callers` sources passes, by position or keyword.  A class,
    named by itself, stands for its `__init__`, hand-written or built from
    its `@dataclass` or `NamedTuple` fields (a `field(init=False)` is none);
    calls are resolved by name, a class name to its `__init__`, and a call
    with *args or **kwargs passes every parameter."""
    defs = collections.defaultdict(list)     # called name -> (module, function, signature)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS):
                defs[node.name].append((module, node.name, _signature(node, 0)))
            if not isinstance(node, ast.ClassDef):
                continue
            fields = _field_signature(node)
            if fields is not None:
                defs[node.name].append((module, node.name, fields))
            for f in (f for f in node.body if isinstance(f, FUNCTIONS)):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in f.decorator_list)
                called = node.name if f.name == "__init__" else f.name
                defs[called].append((module, called, _signature(f, int(not static))))
    passed = set()
    for call in (n for source in callers for n in ast.walk(ast.parse(source))
                 if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        spread = (any(isinstance(arg, ast.Starred) for arg in call.args)
                  or any(k.arg is None for k in call.keywords))
        for module, function, (positional, kwonly, _) in defs.get(name, ()):
            given = ([*positional, *kwonly] if spread else
                     [*positional[:len(call.args)], *(k.arg for k in call.keywords)])
            passed.update((module, function, p) for p in given)
    return sorted((module, function, p) for entries in defs.values()
                  for module, function, (_, _, defaulted) in entries
                  for p in defaulted if (module, function, p) not in passed)


def test_detects_unpassed_default():
    # passed: by position, by keyword, through *args or **kwargs, to a
    # class's __init__ after self, to a dataclass or NamedTuple field by
    # position or keyword; not passed: a default no call gives, a
    # keyword-only one behind positional arguments, a dataclass field's
    # plain or `field` default, a NamedTuple field's; skipped: a nested
    # function's, an init=False field's, a plain class's annotation
    source = ("def f(x, y=1, *, z=2):\n    return x\n"
              "def g(x=1, y=2):\n    return x\n"
              "def h(x=1):\n    return x\n"
              "def e(x=1):\n    return x\n"
              "class C:\n    def __init__(self, n=0):\n        self.n = n\n"
              "    def m(self, k=1):\n        return k\n"
              "def nested():\n    def inner(q=1):\n        return q\n    return inner\n"
              "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 1\n"
              "    c: int = field(init=False, default=0)\n    d: list = field(default_factory=list)\n"
              "    e: int = 2\n"
              "class T(NamedTuple):\n    u: int = 0\n    w: int = 0\n"
              "class P:\n    p: int = 0\n")
    calls = "f(1, 2)\ng(*[1])\nh(x=0)\ne(**{})\nC(3).m()\nD(0, e=3)\nT(1)\nP()\n"
    assert unpassed_defaults({"a": source}, [source, calls]) == [
        ("a", "D", "b"), ("a", "D", "d"), ("a", "T", "w"), ("a", "f", "z"), ("a", "m", "k")]


# tests drive the CLI through cli_main(argv); the console script passes none
UNPASSED_DEFAULTS_ALLOWED = {("sweeps", "cli_main", "argv")}


def test_every_default_is_passed_somewhere():
    # a parameter with a default that no call of the package or of the
    # benchmark passes is a setting only the tests change: a constant.  A
    # default that some such call passes while only the tests leave it
    # out (rely on it) is beyond this rule
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "qstatwork").glob("*.py")}
    callers = [*sources.values(), *(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))]
    assert set(unpassed_defaults(sources, callers)) == UNPASSED_DEFAULTS_ALLOWED


def second_names(source: str) -> list:
    """The names, as name or class.name, of each function, method or
    property of `source` whose body, after its docstring, is one `return`
    of `self.<attr>` or of a call passing exactly the function's own
    parameters, in order and without keywords: a second name for what it
    returns."""
    found = []

    def forwards(node, value):
        if isinstance(value, ast.Attribute):
            return isinstance(value.value, ast.Name) and value.value.id == "self"
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        return (isinstance(value, ast.Call) and not value.keywords
                and [getattr(arg, "id", None) for arg in value.args] == params)

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, FUNCTIONS):
                stmts = node.body[ast.get_docstring(node) is not None:]
                if (len(stmts) == 1 and isinstance(stmts[0], ast.Return)
                        and forwards(node, stmts[0].value)):
                    found.append(prefix + node.name)
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, "")
    return found


def test_detects_second_name():
    # second names: a call forwarding the parameters in order, a method's
    # self among them, and an attribute read back; not: a call that
    # reorders, names or adds an argument, an attribute one level deeper,
    # or a body of more than the return
    assert second_names(
        "def f(a, b):\n    return g(a, b)\n"
        "def h(a, b):\n    return g(b, a)\n"
        "def k(a, b=1):\n    return g(a, b=b)\n"
        "def m(a):\n    return g(a, 2)\n"
        "class C:\n"
        "    @property\n    def p(self):\n        \"\"\"Doc.\"\"\"\n        return self.x\n"
        "    @property\n    def q(self):\n        return self.x.size\n"
        "    def r(self, t):\n        return g(self, t)\n"
        "    def s(self, t):\n        y = g(self, t)\n        return y\n"
    ) == ["f", "C.p", "C.r"]


def test_package_has_no_second_names():
    # one name for each model quantity: a function that only hands back an
    # attribute, or its parameters to another function, is a second name
    # for it, and its callers can read the first
    found = {f"{p.stem}.{name}" for p in (ROOT / "src" / "qstatwork").glob("*.py")
             for name in second_names(p.read_text())}
    assert found == set()


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


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """Line numbers at which `source` reaches the process environment: an
    attribute or a `from os import` of one of ENVIRONMENT_NAMES."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr in ENVIRONMENT_NAMES
        or isinstance(n, ast.ImportFrom) and n.module == "os"
        and ENVIRONMENT_NAMES & {alias.name for alias in n.names})


def test_detects_environment_read():
    assert environment_reads(
        "import os\nos.environ.get('A')\nn = os.getenv('B')\nfrom os import environ, path\n"
        "os.path.join('a', 'b')\nfrom os.path import join\nenvironment = 1\n") == [2, 3, 4]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "qstatwork").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_reads_no_environment(path):
    # a setting read from the environment is an input that no config
    # document, flag or manifest shows; the worker count comes from the
    # affinity mask, which a manifest records
    assert environment_reads(path.read_text()) == []


def bath_reads(source: str) -> list:
    """Line numbers at which `source` reads a bath temperature of the drive,
    `beta_c` or `beta_h`, as an attribute."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in ("beta_c", "beta_h"))


def test_detects_bath_read():
    assert bath_reads(
        "x = p.beta_c * e\nreplace(p, beta_h=1.0)\nb = p.start_values[t0].beta\n"
        "y = p.beta_c if t0 == 0.0 else p.beta_h\nbeta_c = 2\n") == [1, 4, 4]


def test_only_protocols_reads_the_baths():
    # EngineParams.start_values is the one place that pairs a stroke start
    # with its bath (t0 = 0 with beta_c, T/2 with beta_h); every other
    # module takes beta from that record
    readers = {p.stem for p in (ROOT / "src" / "qstatwork").glob("*.py")
               if bath_reads(p.read_text())}
    assert readers == {"protocols"}


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
    # each field's flag, and the coupling kinds under which it is read:
    # both for an engine or system field
    from qstatwork.sweeps import _FIELDS, _READS

    def read_by(name):
        return ", ".join(kind for kind in _READS
                         if not name.startswith("coupling.") or name in _READS[kind])

    assert config_table((ROOT / "README.md").read_text()) == {
        f"{section}.{key}": (flag, read_by(f"{section}.{key}"))
        for section, fields in _FIELDS.items() for key, (_, _, flag) in fields.items()}


def python_block(readme: str, heading: str) -> str:
    """The first Python code block after `heading` in the README."""
    fence = "```python\n"
    start = readme.index(fence, readme.index(heading)) + len(fence)
    return readme[start:readme.index("```", start)]


def test_readme_library_sketch_runs(capsys):
    # the sketch is the README's one example of the library API: it must
    # run on the package as it is, and print its two lines
    sketch = python_block((ROOT / "README.md").read_text(), "## Library sketch")
    exec(compile(sketch, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
