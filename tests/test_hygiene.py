"""Source hygiene: every function, class and method defined in the package is
used by the package, its CLI or its benchmark, or is a test oracle or
fixture named in ``TEST_ONLY_ALLOWED``; every dataclass field is read in the
package, its tests or its benchmark; every default is set by some caller;
and real data go through real transforms."""

import ast
import re
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halfstokes"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Package definitions that only tests reach: the oracles and fixtures of the
# acceptance criteria (``module.name``, ``*`` as a wildcard).  Any other
# definition that no package, CLI or benchmark code calls is deleted.
TEST_ONLY_ALLOWED = (
    "verify.oracle_*",
    "potentials.heat_kernel",
    "potentials.newton_kernel",
    "potentials.heat_single_layer_adjoint",
    "potentials.single_layer_wall_trace_adjoint",
    "potentials.strip_newton_potential",
    "transforms.helmholtz_project",
    "transforms.q_potential",
    "navier_stokes.weak_ns_residual",
    "datagen.default_test_family",
    "datagen.gaussian_boundary_pulse",
    "datagen.random_halfspace_field",
)


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
    """Count of each name loaded, attribute accessed and identifier inside a
    string literal (the benchmark tracer looks functions up by name);
    docstrings do not count."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            refs.update(re.findall(r"[A-Za-z_]\w*", node.value))
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
    reach = _reach()
    test_only = sorted({name for name, package, tests in reach
                        if tests and not package
                        and not any(fnmatch(name, pattern)
                                    for pattern in TEST_ONLY_ALLOWED)})
    assert not test_only, f"only tests reach: {test_only}"
    stale = [pattern for pattern in TEST_ONLY_ALLOWED
             if not any(fnmatch(name, pattern) for name, _, _ in reach)]
    assert not stale, f"allowed test-only names not defined: {stale}"


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
# fields with rfftn/irfftn.  The exceptions are named: the lag convolutions
# act on complex tangential modes, and the strip-potential oracle of
# ``verify`` stays on the full lattice as an independent reference.
COMPLEX_FFTS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}
COMPLEX_ALLOWED = {("numerics.py", "lag_convolve"),
                   ("numerics.py", "lag_correlate"),
                   ("verify.py", "_sample_field_2d")}


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
