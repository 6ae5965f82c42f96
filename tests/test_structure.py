"""Static checks on the source: no unreached public names, no defaulted
parameter that no caller sets, no dataclass field that nothing reads, no
checks that are constants."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gromovlab"

# the scalar references that tests/test_engine.py compares the array
# kernels against; nothing in the library calls them
SCALAR_REFERENCES = {"four_point_defect", "tetra_pair_distance"}

# defaulted parameters that only the benchmark (perfbench/) sets
BENCHMARK_KNOBS = {("run_sample", "period"), ("run_all", "seed")}

# dataclasses whose fields only tests read: FourPointReport is the scalar
# reference that tests/test_engine.py compares the batched defects against
TEST_ONLY_DATACLASSES = {"FourPointReport"}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _definitions(tree):
    """(name, node) for every module-level function, class and assigned
    name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _loaded_names(tree, skip=None):
    """Names read as ``name`` or ``obj.name`` anywhere in the tree outside
    the subtree ``skip``.  Docstrings are string constants, so they never
    count."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _sources():
    """The files whose reads and calls count: the package and the scripts."""
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def test_every_public_name_is_reached():
    trees = {path: _parse(path) for path in _sources()}
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, node in _definitions(trees[path]):
            if name.startswith("_") or name in SCALAR_REFERENCES:
                continue
            # the re-exports in __init__ are imports, not loads
            if not any(
                name in _loaded_names(tree, skip=node if other == path else None)
                for other, tree in trees.items()
            ):
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, f"public names nothing in src/ or scripts/ reads: {unreached}"


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
        for func, bound in _functions(_parse(path)):
            own = [c for c in calls if _called_name(c) == func.name]
            for name, pos in _defaulted(func, bound):
                if (func.name, name) in BENCHMARK_KNOBS:
                    continue
                if not any(
                    any(kw.arg in (name, None) for kw in c.keywords)
                    or any(isinstance(a, ast.Starred) for a in c.args)
                    or (pos is not None and pos < len(c.args))
                    for c in own
                ):
                    unset.append(f"{path.stem}.{func.name}({name}=)")
    assert not unset, f"defaulted parameters no call in src/ or scripts/ sets: {unset}"


def test_every_dataclass_field_is_read():
    read = set().union(*(_loaded_names(_parse(path)) for path in _sources()))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef) or cls.name in TEST_ONLY_DATACLASSES:
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            for item in cls.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id not in read):
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
    checks = _check_tuples(_parse(PACKAGE / "witnesses.py"))
    # every family records some: an empty scan would prove nothing
    assert len(checks) >= 20
    constant = [t.elts[0].value for t in checks if isinstance(t.elts[1], ast.Constant)]
    assert not constant, f"checks recorded as a literal constant: {constant}"
