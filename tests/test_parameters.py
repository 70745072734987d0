"""Every parameter with a default has a caller that sets it.

A default that no call in `src/` or `bench/` overrides is a constant
written as a parameter: it doubles the configurations the tests must cover
and moves no output. This test parses the package with `ast` and names
each such parameter. Calls are matched by the function's name (`f(...)` or
`obj.f(...)`), or by the class's name for `__init__`. A call passes a
parameter by keyword, by position (not counting `self` or `cls`), or
through `*args` or `**kwargs`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tubenet"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# module.function(parameter) -> why its default may stand with no caller
ALLOWED = {
    "cli.main(argv)":
        "the entry point: the console script passes nothing, the tests "
        "drive it with an argument list",
    "metrics.contour_f(tolerance)":
        "the tests pin tolerances 0 and 1 against an oracle, and the "
        "default, 0.8% of the diagonal rounded up, can never be 0",
    "tensor.finite_diff_grad(eps)":
        "a gradient oracle, called only by tests",
    "linking.brute_force_link(limit)":
        "the oracle of link_top_k; its limit guards the enumeration",
    "networks.run_stcnn_table_forward(in_shape)":
        "criterion 2's twin of run_tcnn_table_forward, whose arguments "
        "the benchmark passes",
    "networks.run_stcnn_table_forward(seed)":
        "criterion 2's twin of run_tcnn_table_forward, whose arguments "
        "the benchmark passes",
}


def _functions(tree):
    """(function node, enclosing class name or None) of every def."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child, cls))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def _defaulted(fn, cls):
    """(position or None, name) of each parameter of `fn` with a default;
    positions count from the first argument a call writes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
    if cls is not None and "staticmethod" not in decorators:
        positional = positional[1:]  # self or cls
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _calls():
    """{called name: [ast.Call]} over every caller file."""
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name is not None:
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, position, name):
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def one_value_parameters():
    calls = _calls()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, cls in _functions(ast.parse(path.read_text())):
            target = cls if fn.name == "__init__" else fn.name
            for position, name in _defaulted(fn, cls):
                if not any(_passes(c, position, name)
                           for c in calls.get(target, [])):
                    qual = f"{cls}.{fn.name}" if cls else fn.name
                    found.append(f"{path.stem}.{qual}({name})")
    return found


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    unset = [p for p in one_value_parameters() if p not in ALLOWED]
    assert not unset, ("parameters whose default no call in src/ or bench/ "
                       "overrides: " + ", ".join(unset))


def test_every_allowed_parameter_still_exists_unset():
    # an entry whose parameter is gone, or now has a caller, is stale
    assert set(ALLOWED) <= set(one_value_parameters())


def test_a_parameter_that_no_caller_sets_is_named():
    source = ("def f(a, b=1, *, c=2):\n    pass\n"
              "class K:\n    def __init__(self, x=0):\n        pass\n"
              "    def m(self, y=0):\n        pass\n")
    tree = ast.parse(source)
    defaulted = {fn.name: _defaulted(fn, cls) for fn, cls in _functions(tree)}
    assert defaulted == {"f": [(1, "b"), (None, "c")],
                         "__init__": [(0, "x")], "m": [(0, "y")]}
    call = ast.parse("f(1, 2)").body[0].value
    assert _passes(call, 1, "b") and not _passes(call, None, "c")
    call = ast.parse("f(1, **kw)").body[0].value
    assert _passes(call, 1, "b") and _passes(call, None, "c")
    call = ast.parse("obj.m()").body[0].value
    assert not _passes(call, 0, "y")
