"""Static checks on the source: no unreached public names, no checks that
are constants."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gromovlab"

# the scalar references that tests/test_engine.py compares the array
# kernels against; nothing in the library calls them
SCALAR_REFERENCES = {"four_point_defect", "tetra_pair_distance"}


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


def test_every_public_name_is_reached():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: _parse(path) for path in sources}
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
