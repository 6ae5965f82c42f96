"""Static checks on the source: no unreached module-level names, no parameter
that its function never reads, no defaulted parameter or dataclass field
that no caller sets, no dataclass field that nothing reads, no checks
that are constants, no directed rounding outside the rounding module, no
formula kept twice as a scalar and an array twin, no code that branches on
a name."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gromovlab"

# defaulted parameters that only the benchmark (perfbench/) sets
BENCHMARK_KNOBS = {("run_sample", "period"), ("run_all", "seed")}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _definitions(tree):
    """(name, node) for every module-level function, class and assigned
    name, the names a tuple assignment unpacks included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _load_counts(tree):
    """How often each name is read as ``name`` or ``obj.name`` in the tree.
    Docstrings are string constants, so they never count."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
    return counts


def _sources():
    """The files whose reads and calls count: the package and the scripts."""
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def test_every_public_name_is_reached():
    trees = {path: _parse(path) for path in _sources()}
    loads = sum((_load_counts(tree) for tree in trees.values()), Counter())
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, node in _definitions(trees[path]):
            # private names too: a leftover constant or helper is dead code;
            # the re-exports in __init__ are imports, not loads, and a
            # definition's reads of its own name (recursion) do not count
            if loads[name] == _load_counts(node)[name]:
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, f"module-level names nothing in src/ or scripts/ reads: {unreached}"


def _functions(tree):
    """(function node, whether its first parameter is self or cls) for
    every function and method in the tree."""
    methods = {
        id(item)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, id(node) in methods


def _defaulted(func, bound):
    """(name, position) of each defaulted parameter, position counted
    among the arguments a caller writes (None for keyword-only ones)."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for k, arg in enumerate(positional[first:], start=first):
        yield arg.arg, k - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _suites(tree):
    """The names of the functions in the module's ``SUITES`` table."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "SUITES":
            return {elt.id for elt in node.value.elts}
    return set()


def test_every_parameter_is_read():
    # verify's suites share one signature, so a suite may leave its ctx
    suites = _suites(_parse(PACKAGE / "verify.py"))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        funcs += [item for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for item in cls.body if isinstance(item, ast.FunctionDef)]
        for func in funcs:
            args = func.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for n in ast.walk(func)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in params:
                if name not in read and not (func.name in suites and name == "ctx"):
                    unread.append(f"{path.stem}.{func.name}({name})")
    assert not unread, f"parameters their function never reads: {unread}"


def _is_dataclass(cls):
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _fields(cls):
    """The field declarations of a dataclass, in declaration order."""
    return [item for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _signatures(tree):
    """(callable name, its defaulted parameters as (name, position)) for
    every function and method, and for every dataclass, whose generated
    constructor takes the fields by position in declaration order or by
    keyword."""
    for func, bound in _functions(tree):
        yield func.name, list(_defaulted(func, bound))
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            yield cls.name, [(item.target.id, k) for k, item in enumerate(_fields(cls))
                             if item.value is not None]


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = [node for path in _sources() for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call)]
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for callee, defaulted in _signatures(_parse(path)):
            own = [c for c in calls if _called_name(c) == callee]
            for name, pos in defaulted:
                if (callee, name) in BENCHMARK_KNOBS:
                    continue
                if not any(
                    any(kw.arg in (name, None) for kw in c.keywords)
                    or any(isinstance(a, ast.Starred) for a in c.args)
                    or (pos is not None and pos < len(c.args))
                    for c in own
                ):
                    unset.append(f"{path.stem}.{callee}({name}=)")
    assert not unset, f"defaulted parameters or fields no call in src/ or scripts/ sets: {unset}"


def test_every_dataclass_field_is_read():
    read = set().union(*(_load_counts(_parse(path)) for path in _sources()))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            for item in _fields(cls):
                if item.target.id not in read:
                    unread.append(f"{path.stem}.{cls.name}.{item.target.id}")
    assert not unread, f"dataclass fields nothing in src/ or scripts/ reads: {unread}"


def _check_tuples(tree):
    """The (name, value) tuples stored in a variable named ``*checks``,
    directly or by ``.append``/``.extend``."""
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id.endswith("checks") for t in node.targets
        ):
            values.append(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id.endswith("checks")
        ):
            values.extend(node.args)
    return [
        t
        for value in values
        for t in ast.walk(value)
        if isinstance(t, ast.Tuple)
        and len(t.elts) == 2
        and isinstance(t.elts[0], ast.Constant)
        and isinstance(t.elts[0].value, str)
    ]


def test_witness_checks_are_computed():
    tree = _parse(PACKAGE / "witnesses.py")
    checks = _check_tuples(tree)
    # every family records some: an empty scan would prove nothing
    assert len(checks) >= 10
    constant = [t.elts[0].value for t in checks if isinstance(t.elts[1], ast.Constant)]
    assert not constant, f"checks recorded as a literal constant: {constant}"
    constructors = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.endswith("_witness")]
    assert len(constructors) == 5
    silent = [func.name for func in constructors
              if all(isinstance(t.elts[1], ast.Constant) for t in _check_tuples(func))]
    assert not silent, f"witness constructors that record no computed check: {silent}"


def test_directed_steps_stay_in_the_rounding_module():
    # a site that steps a float itself carries its own error argument;
    # every certified term rounds through gromovlab.rounding instead
    stepping = [path.name for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "rounding.py"
                and any(f"{mod}.nextafter" in path.read_text() for mod in ("math", "np", "numpy"))]
    assert not stepping, f"modules that call nextafter themselves: {stepping}"


def test_no_array_twins():
    # a formula is written once, over the scalar or the array namespace of
    # gromovlab.rounding; a module that defines both name and name_array
    # keeps a hand-written twin of it
    twins = []
    for path in sorted(PACKAGE.glob("*.py")):
        names = {name for name, _ in _definitions(_parse(path))}
        twins += [f"{path.stem}.{name}" for name in sorted(names) if f"{name}_array" in names]
    assert not twins, f"names defined beside an _array twin: {twins}"


# functions allowed to compare a ``.name``, each with its reason
NAME_FORKS = {
    # the hinge's closed-form profile distance: the branch and bound in its
    # place makes verify.run_all 15-23% slower (best of 20 calls, 42-45 ->
    # 51-53 ms on a 2-core Xeon VM)
    ("convex", "boundary_distance_brackets"),
}


def _name_compares(tree):
    """(innermost enclosing function, line) of each comparison that reads a
    ``.name`` attribute; ast.walk visits outer functions first."""
    owner = {}
    for func in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        for node in ast.walk(func):
            if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "name"
                for side in [node.left, *node.comparators]
            ):
                owner[node.lineno] = getattr(func, "name", "<module>")
    return [(name, line) for line, name in sorted(owner.items())]


def test_no_code_branches_on_a_name():
    # a profile or domain is refused or dispatched by what it computes: a
    # hinge-shaped profile under another name must meet the same guard
    forks = [f"{path.stem}.{func} (line {line})"
             for path in sorted(PACKAGE.glob("*.py"))
             for func, line in _name_compares(_parse(path))
             if (path.stem, func) not in NAME_FORKS]
    assert not forks, f"comparisons of a .name outside NAME_FORKS: {forks}"
