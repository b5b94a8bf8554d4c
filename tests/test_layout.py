"""Structural rules of the package source."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "reglab"


def test_no_function_local_imports():
    # every module imports at its top; none needs a deferred import to
    # dodge an import cycle
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    offenders.append(f"{path.name}:{node.lineno} in {func.name}")
    assert offenders == []


def _module_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def test_public_names_resolve():
    # every name in a module's __all__ is defined there, and every name the
    # package root re-exports from such a module is listed in its __all__
    exported = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = _module_all(tree)
        if names is None:
            continue
        exported[path.stem] = names
        assert names <= _defined_names(tree), (path.name, names - _defined_names(tree))
    assert exported
    root = ast.parse((SRC / "__init__.py").read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in root.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in exported
        for alias in node.names
        if alias.name not in exported[node.module]
    ]
    assert unlisted == []


def _names(node):
    """Names of a class-info argument: a name, an attribute, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def test_only_grids_tests_for_grid1d():
    # grids holds the one check that a field's grid is a Grid1D; every other
    # module calls it instead of testing the type itself
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "grids.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and "Grid1D" in _names(node.args[1])):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _calls_outside_grids(name):
    """The calls of ``name`` in every module but grids, as file:line."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "grids.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and name in _names(node.func):
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


def test_only_grids_walks_the_ladder():
    # grids holds the dyadic ladder and the one increment fit on it; every other
    # module calls ladder_increments or ladder_columns instead of the ladder itself
    assert _calls_outside_grids("dyadic_ladder") == []


def test_only_grids_forms_a_derivative_multiplier():
    # grids holds the one (i xi)^k derivative: every other module differentiates a
    # field through spectral_derivative or the graded rule, never by a multiplier of its own
    assert _calls_outside_grids("derivative_multiplier") == []


def _own_nodes(func):
    """The nodes of a function's body, without those of the functions nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_one_rk4_loop():
    # ode holds the one RK4 loop, which steps a whole family of problems at once;
    # a second loop kept beside it would form the update k1 + 2 k2 + 2 k3 + k4 again
    update = re.compile(r"\w+ \+ 2(\.0)? \* \w+ \+ 2(\.0)? \* \w+ \+ \w+")
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.BinOp) and update.fullmatch(ast.unparse(node))
                    for node in _own_nodes(func)):
                found.add(f"{path.name}:{func.name}")
    assert found == {"ode.py:integrate_family"}


def test_one_fifth_derivative_rule():
    # kernels._graded_rule is the one rule of the smoothed fifth derivative: no module
    # but numerics names the adaptive quadrature, and no other function builds Gauss nodes
    naming, building = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        if path.name != "numerics.py" and "adaptive_quadrature" in source:
            naming.append(path.name)
        for func in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call) and "leggauss" in _names(node.func)
                    for node in _own_nodes(func)):
                building.add(f"{path.name}:{func.name}")
    assert naming == []
    assert building == {"kernels.py:_graded_rule"}


def test_benchmark_tracer_resolves_its_names(monkeypatch):
    # the benchmark's tracer names package functions and methods; building it
    # (without installing it) fails if one of them is removed or renamed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    assert set(tracer._hooks) <= set(tracer.funcs)


def test_one_closed_form_flow():
    # ode._flow_factor is the one closed form of the pointwise flow w' = lam |w|^alpha w:
    # no other module calls the log1p, cos or sin it is built from, so the solver takes
    # its flows from ode and cannot grow a second copy of them
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ode.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and {"log1p", "cos", "sin"} & set(_names(node.func)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
