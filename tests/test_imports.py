"""Every top-level import of a package module is used in that module, and
every internal top-level function or class is used somewhere in the package.

No linter runs on this package, so this stands in for an unused-name
lint: it parses each module with ast and compares the names bound by its
top-level imports with the names its code reads.  __init__ re-exports its
imports and __future__ imports switch on features, so both are skipped.
A top-level def or class that __init__ does not export has no caller
outside the package, so some package module must read it, by name or as
an attribute.  A method or property of a package class must likewise be
read as an attribute in the package or the benchmark, or be named in KEPT
with its reason; a name that __init__ exports must be read in the package
outside __init__ or in the benchmark, or be named in KEPT_EXPORTS with its
reason.  The modules also form one stack of layers, and each
imports only from the layers below it, so an import cycle, or a module
that no layer names, fails here.  No module raises a bare ValueError: an
argument outside its domain is an InvalidArgument, raised by the library:
the command line raises none and judges no threshold.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "euleradic"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
LAYERS = ["rationals", "errors", "graph", "paths", "stacking", "measure", "montecarlo", "cli"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom)
            for a in n.names}


def _read_names() -> set[str]:
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_internal_definitions_have_a_caller(path):
    defined = [n.name for n in ast.parse(path.read_text()).body
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    used = _exported() | _read_names()
    assert [name for name in defined if name not in used] == []


BENCH = PACKAGE.parents[1] / "bench"

# public methods kept without a reader in the package or the benchmark: the
# edge and step views of a path that a weight function or a caller working
# in (turn, copy) steps needs
KEPT = {
    "EdgeRef.target": "a weight function may weigh an edge by its target",
    "FinitePath.steps": "the (turn, copy) step form that FinitePath(steps) takes",
    "FinitePath.column_at": "the column of a path at a level, for step-form callers",
    "FinitePath.edge_at": "the edge object a weight function takes, at a level",
    "FinitePath.extended": "one step appended in step form, checking only that step",
    "StackLayout.interval_width": "the width 1/(n+1)! of a stage's intervals",
}


def _methods() -> list[str]:
    """Class.name of every non-dunder method or property of a package class."""
    found = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                found += [f"{cls.name}.{n.name}" for n in cls.body
                          if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not (n.name.startswith("__") and n.name.endswith("__"))]
    return found


def test_methods_have_a_reader():
    # a method is read as an attribute somewhere in the package or the
    # benchmark, or kept on purpose; a kept one that gains a reader or goes
    # away leaves KEPT
    read = set()
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
        read |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Attribute)}
    unread = [m for m in _methods() if m.split(".")[1] not in read]
    assert sorted(unread) == sorted(KEPT)


# exported names kept without a reader in the package or the benchmark:
# each is a piece of the paper's system that a caller or a test asks for
KEPT_EXPORTS = {
    "iterate": "n steps of the adic map by rank arithmetic, for a caller "
               "that jumps along an orbit",
    "max_path_to": "the maximal path into a vertex; acceptance criterion 3 "
                   "ends each successor chain on it",
    "vershik_compare": "the Vershik order itself; acceptance criterion 3 sorts "
                       "each fiber by it",
    "transition_probs": "the column chain's exact kernel at one vertex",
    "load_expectations": "the packaged thresholds of the acceptance gate; "
                         "criterion 8 reads its meeting spec",
}


def test_exports_have_a_reader():
    # an exported name is read, as a name, an attribute or an import, in the
    # package outside __init__ or in the benchmark, or kept on purpose; a kept
    # one that gains a reader or goes away leaves KEPT_EXPORTS
    read = set()
    for path in [*MODULES, *BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            read |= {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    assert sorted(_exported() - read) == sorted(KEPT_EXPORTS)


def _package_imports(source: str) -> set[str]:
    """The package modules named by the relative imports anywhere in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


def test_modules_import_only_lower_layers():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)
    upward = [(path.stem, name) for path in MODULES
              for name in sorted(_package_imports(path.read_text()))
              if name not in LAYERS[: LAYERS.index(path.stem)]]
    assert upward == []


TAIL_ROUTE_NAMES = {"EXACT_TAIL_BUDGET", "ENCLOSURE_LEVEL_CAP", "ENCLOSURE_DENOM_BITS"}


def _readers(wanted: set[str]) -> set[str]:
    """The package modules that read one of the wanted names, as a name,
    an attribute or an import."""
    readers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
            if names & wanted:
                readers.add(path.stem)
    return readers


def test_only_measure_reads_the_tail_route_constants():
    # measure.tail_reference chooses between the exact tail and the
    # enclosure; a second reader of their limits would be a second choice
    assert _readers(TAIL_ROUTE_NAMES) <= {"measure"}


def test_only_errors_states_the_finite_real_rule():
    # errors.require_real reads every weight, point and epsilon; a second
    # reader of numbers.Real would be a second rule
    assert _readers({"Real"}) == {"errors"}


def test_only_errors_states_the_size_limit():
    # errors.require_size refuses every size above one limit, read off
    # sys.maxsize; a second reader of maxsize would be a second limit
    assert _readers({"maxsize"}) == {"errors"}


def test_only_paths_reads_eulerian_lookup():
    # one Eulerian number is graph.eulerian, the closed form; the memo's
    # unchecked reader serves the rank descents of paths alone
    assert _readers({"eulerian_lookup"}) == {"paths"}


def _raised_names(source: str) -> list[str]:
    """The names of the exceptions raised in source, called or bare."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_value_error_is_raised(path):
    # an argument outside its domain is an InvalidArgument, which the command
    # line turns into a usage error; a bare ValueError would be a traceback
    assert "ValueError" not in _raised_names(path.read_text())


def test_the_command_line_owns_no_argument_domain():
    # every domain and verdict lives in the library: the command line
    # parses, prints and maps verdicts to exit codes, so it raises no
    # InvalidArgument and calls no errors reader (require_*), a threshold's
    # or a count's
    source = (PACKAGE / "cli.py").read_text()
    assert "InvalidArgument" not in _raised_names(source)
    called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
              for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)}
    assert sorted(name for name in called if name and name.startswith("require_")) == []


INTEGER_READERS = {"require_integer", "require_at_least", "require_size"}


def test_no_integer_reader_drops_its_value():
    # a reader returns the Python int it read: a call that drops it leaves
    # the caller's numpy integer to wrap in the big-integer arithmetic
    dropped = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in INTEGER_READERS:
                    dropped.append(f"{path.name}:{node.lineno}")
    assert dropped == []
    # and the rule itself, numbers.Integral, is read in errors alone
    assert _readers({"Integral"}) == {"errors"}
