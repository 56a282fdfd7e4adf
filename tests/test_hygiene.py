"""Source hygiene: every function, class and method defined in the package is
used by the package, its CLI or its benchmark (test oracles and fixtures
live under ``tests/``); every dataclass field is read in the package, its
tests or its benchmark; every default is set by some caller; real data go
through real transforms, and the one named exception still makes a complex
call; the norm engine and the transforms write into buffers, and an
inverse's complex passes run in place; the package imports no scipy, and
only at module level; it tunes no allocator; it memoizes only through
``core.grid_table``; and one function of the CLI writes every run's report
and failure line."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halfstokes"
BENCHMARK = ROOT / "perfbench"
SEARCHED = (ROOT / "src", ROOT / "tests", BENCHMARK)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree, prefix=""):
    """``(qualified name, node)`` of every function, class and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            name = prefix + node.name
            if not _is_dunder(node.name):
                yield name, node
            yield from _definitions(node, name + ".")
        else:
            yield from _definitions(node, prefix)


def _references(tree):
    """Count of each name loaded and attribute accessed; a name inside a
    string, such as one the benchmark tracer looks up, does not count."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _reach():
    """``(module.name, referenced from outside tests, referenced from
    tests)`` for every package definition; a reference from inside the
    definition's own body does not count."""
    outside, inside_tests = Counter(), Counter()
    trees = {}
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text())
            counts = inside_tests if base.name == "tests" else outside
            counts.update(_references(tree))
            if path.is_relative_to(PACKAGE):
                trees[path] = tree
    out = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            own = _references(node)[node.name]
            out.append((f"{path.stem}.{name}",
                        outside[node.name] > own, inside_tests[node.name] > 0))
    return out


def test_no_unreferenced_definitions():
    unused = sorted({name for name, package, tests in _reach()
                     if not (package or tests)})
    assert not unused, f"defined but never referenced: {unused}"


def test_no_definitions_only_tests_reach():
    test_only = sorted({name for name, package, tests in _reach()
                        if tests and not package})
    assert not test_only, f"only tests reach: {test_only}"


def _dataclass_fields(tree):
    """``Class.field`` for every annotated field of a ``@dataclass``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                _callee(d.func if isinstance(d, ast.Call) else d)
                == "dataclass" for d in node.decorator_list):
            out += [(node.name, item.target.id) for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)]
    return out


def test_every_dataclass_field_is_read():
    fields = []
    for path in sorted(PACKAGE.rglob("*.py")):
        fields += _dataclass_fields(ast.parse(path.read_text()))
    read = set()
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            tree = ast.parse(path.read_text())
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cls}.{name}" for cls, name in fields
                    if name not in read)
    assert not unread, f"dataclass fields never read: {unread}"


def _defaulted(tree):
    """(name, parameter, position) for every defaulted parameter of a
    function or method.  The position counts from the first argument a call
    passes (``self`` and ``cls`` are skipped) and is None for keyword-only
    parameters; a class's ``__init__`` goes by the class name."""
    owner = {id(item): node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for item in node.body}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owner.get(id(fn)) if fn.name == "__init__" else fn.name
        if name is None or _is_dunder(name):
            continue
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in fn.decorator_list)
        skip = int(id(fn) in owner and not static)
        params = fn.args.posonlyargs + fn.args.args
        first_default = len(params) - len(fn.args.defaults)
        out += [(name, arg.arg, pos - skip) for pos, arg in enumerate(params)
                if pos >= first_default]
        out += [(name, arg.arg, None) for arg, default
                in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None]
    return out


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _record_calls(tree, calls):
    """Add every call in ``tree`` to ``calls`` ({callee name: [largest
    positional count, keyword names]}); ``functools.partial(f, ...)`` counts
    as a call of ``f``, and a call with ``*args`` or ``**kwargs`` sets every
    parameter it could reach."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        if name is None:
            continue
        entry = calls.setdefault(name, [0, set()])
        starred = any(isinstance(a, ast.Starred) for a in args)
        entry[0] = max(entry[0], 10 ** 6 if starred else len(args))
        entry[1].update(kw.arg or "**" for kw in node.keywords)


def _subclasses(tree):
    """{base class name: names of the classes that derive from it}."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                out.setdefault(_callee(base), set()).add(node.name)
    return out


def _sets(call, param, pos):
    npos, kws = call
    return (pos is not None and npos > pos) or param in kws or "**" in kws


def test_every_default_is_set_by_a_caller():
    defaults, children = [], {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defaults += [(path.name, *d) for d in _defaulted(tree)]
        for base, names in _subclasses(tree).items():
            children.setdefault(base, set()).update(names)
    calls = {}
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            _record_calls(ast.parse(path.read_text()), calls)

    unset = []
    for module, name, param, pos in defaults:
        # a class's __init__ is also called through the classes deriving
        # from it
        names, todo = set(), [name]
        while todo:
            cur = todo.pop()
            if cur not in names:
                names.add(cur)
                todo += children.get(cur, ())
        if not any(_sets(calls.get(cname, (0, set())), param, pos)
                   for cname in names):
            unset.append(f"{module}:{name}({param})")
    assert not unset, f"defaulted but never set by a caller: {sorted(unset)}"


# Complex FFTs of real data waste half the work: the package transforms real
# fields with rfftn/irfftn.  The one exception is named: the inverse real
# transform runs the complex passes of irfftn on complex half-lattice modes,
# in place (see test_inverse_half_passes_run_in_place).
COMPLEX_FFTS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}
COMPLEX_ALLOWED = {("transforms.py", "inverse_half")}


def _inverse_call(node):
    return isinstance(node, ast.Call) and "ifft" in (_callee(node.func) or "")


def _complex_transform_uses(tree, module):
    """(function, line, what) of each complex FFT call outside the allowed
    functions, and of each real part taken of an inverse transform."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            name = _callee(node.func)
            if name in COMPLEX_FFTS and (module, owner) not in COMPLEX_ALLOWED:
                found.append((owner, node.lineno, name))
            if name == "real" and node.args and _inverse_call(node.args[0]):
                found.append((owner, node.lineno, "real(ifft...)"))
        if isinstance(node, ast.Attribute) and node.attr == "real" \
                and _inverse_call(node.value):
            found.append((owner, node.lineno, "ifft...(...).real"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_real_data_use_real_transforms():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += [f"{path.name}:{line} {owner}: {what}" for owner, line, what
                  in _complex_transform_uses(ast.parse(path.read_text()),
                                             path.name)]
    assert not found, f"complex transforms of real data: {found}"


def _complex_fft_callers():
    """(module file, function) of each function whose body makes a complex
    FFT call."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(isinstance(node, ast.Call)
                            and _callee(node.func) in COMPLEX_FFTS
                            for node in ast.walk(fn)):
                found.add((path.name, fn.name))
    return found


def test_complex_allowed_names_live_callers():
    # a deleted or renamed function must not leave its exception behind
    stale = sorted(COMPLEX_ALLOWED - _complex_fft_callers())
    assert not stale, f"allowed complex-FFT callers that make none: {stale}"


# The Besov norm engine transforms into buffers it allocates once per call
# and reuses across components and blocks, and the transforms of the solver
# write into one destination: every FFT call there passes out=.
FFTS = COMPLEX_FFTS | {"rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                       "hfft", "ihfft"}


def _fft_calls(tree):
    """(line, name, passes out=) of each FFT call."""
    return [(node.lineno, _callee(node.func),
             any(kw.arg == "out" for kw in node.keywords))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and _callee(node.func) in FFTS]


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _keyword(call, name):
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _is_empty_call(node):
    return isinstance(node, ast.Call) and _callee(node.func) == "empty"


def test_norm_engine_transforms_into_buffers():
    for module in ("besov.py", "transforms.py"):
        calls = _fft_calls(ast.parse((PACKAGE / module).read_text()))
        assert calls, module
        fresh = [f"{module}:{line} {name}" for line, name, out in calls
                 if not out]
        assert not fresh, f"FFT calls without out=: {fresh}"


@pytest.mark.parametrize("name", ["tan_ifft", "whole_ifft"])
def test_inverse_transforms_write_a_fresh_array(name):
    # the inverse's real pass writes into an np.empty made in the function,
    # never into the caller's modes or a shared buffer
    fn = _function(ast.parse((PACKAGE / "transforms.py").read_text()), name)
    fresh = {target.id for node in ast.walk(fn)
             if isinstance(node, ast.Assign) and _is_empty_call(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
             and _callee(node.func) == "inverse_half"]
    assert calls
    for call in calls:
        out = _keyword(call, "out")
        assert _is_empty_call(out) or (isinstance(out, ast.Name)
                                       and out.id in fresh), ast.unparse(call)


def _is_modes_view(node):
    """Whether ``node`` is ``modes``, a subscript of it, or a conditional
    between such views."""
    if isinstance(node, ast.IfExp):
        return _is_modes_view(node.body) and _is_modes_view(node.orelse)
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "modes"


def test_inverse_half_passes_run_in_place():
    # the one COMPLEX_ALLOWED entry of transforms.py admits in-place passes
    # over the modes only: each complex FFT writes back into its input,
    # which is the modes or, for the pruned passes, a view of them
    fn = _function(ast.parse((PACKAGE / "transforms.py").read_text()),
                   "inverse_half")
    views = {"modes"} | {target.id for node in ast.walk(fn)
                         if isinstance(node, ast.Assign)
                         and _is_modes_view(node.value)
                         for target in node.targets
                         if isinstance(target, ast.Name)}
    calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
             and _callee(node.func) in COMPLEX_FFTS]
    assert calls
    for call in calls:
        out = _keyword(call, "out")
        assert call.args and out is not None \
            and ast.dump(out) == ast.dump(call.args[0]), ast.unparse(call)
        assert isinstance(out, ast.Name) and out.id in views, \
            ast.unparse(call)


def test_package_imports_only_numpy():
    # a fresh interpreter, so that modules the test run loaded do not count
    code = (
        "import importlib, json, pkgutil, sys, halfstokes\n"
        "for m in pkgutil.walk_packages(halfstokes.__path__, 'halfstokes.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    loaded = json.loads(run.stdout)
    submodules = {"halfstokes." + f.stem for f in PACKAGE.glob("*.py")
                  if f.stem != "__init__"}
    assert submodules <= set(loaded)
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def _ctypes_imports(tree):
    """Line of each ``import ctypes``, ``from ctypes import ...`` and
    ``"ctypes"`` string (an ``importlib`` or ``__import__`` lookup)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(n.split(".")[0] == "ctypes" for n in names):
            found.append(node.lineno)
    return found


def test_package_tunes_no_allocator():
    # speed has to come from the code: no process-wide malloc settings
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        found += [f"{path.name}:{text.count(chr(10), 0, m.start()) + 1} "
                  f"{m.group()}"
                  for m in re.finditer(r"mallopt|MALLOC_", text)]
        found += [f"{path.name}:{line} ctypes"
                  for line in _ctypes_imports(ast.parse(text))]
    assert not found, f"allocator tuning in the package: {found}"


_MEMO_NAMES = ("OrderedDict", "lru_cache", "cache")


def _memo_uses(tree):
    """Lines that import or reach ``collections.OrderedDict``,
    ``functools.lru_cache`` or ``functools.cache``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module in ("collections", "functools"):
            found += [node.lineno for alias in node.names
                      if alias.name in _MEMO_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in _MEMO_NAMES \
                and getattr(node.value, "id", None) in ("collections",
                                                        "functools"):
            found.append(node.lineno)
    return found


def test_package_memoizes_only_through_grid_table():
    # one cache mechanism: a map outside core.grid_table would escape the
    # bound test and the read-only rule of every memoized table
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "core.py":
            found += [f"{path.name}:{line}"
                      for line in _memo_uses(ast.parse(path.read_text()))]
    assert not found, f"a cache outside core.grid_table: {found}"


def test_package_imports_only_at_module_level():
    # a function-level import hides an edge of the module graph, or a cycle
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not found, f"imports inside package functions: {sorted(found)}"


def _exit_path_calls(tree):
    """``{call: set of functions}``: the module-level function (or
    ``<module>``) around each call of ``io.write_report`` and of ``print``
    to ``sys.stderr`` in ``tree``."""
    found = {"io.write_report": set(), "print(file=sys.stderr)": set()}
    for item in tree.body:
        where = item.name if isinstance(item, ast.FunctionDef) else "<module>"
        for node in ast.walk(item):
            if not isinstance(node, ast.Call):
                continue
            if ast.unparse(node.func) == "io.write_report":
                found["io.write_report"].add(where)
            elif ast.unparse(node.func) == "print" and any(
                    kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                    for kw in node.keywords):
                found["print(file=sys.stderr)"].add(where)
    return found


def test_cli_ends_every_run_in_one_place():
    # the report and the failure line are written by one function, main or
    # a helper it calls, so that no second failure path can write its own
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main_calls = {ast.unparse(node.func) for node in
                  ast.walk(_function(tree, "main"))
                  if isinstance(node, ast.Call)}
    for call, where in _exit_path_calls(tree).items():
        assert len(where) == 1, f"{call} is called from {sorted(where)}"
        assert where <= {"main"} | main_calls, \
            f"{call} is called from {where}, which main does not call"
