"""Every name and every option the package defines has a caller outside the tests.

A caller of a name is a reference by name (``name`` or ``obj.name``) in the package, the
demos or perfbench's modules, or an import in the demos or perfbench; perfbench's tracer
patches by name, so its dotted-name strings count too.  Its own test module does not
count, nor does an import inside the package, which only re-exports.

An option is a parameter with a default, of a function, a method or a dataclass.  It has
a caller when some call in the package, the demos or any perfbench file passes it; the
perfbench tests count here, because they are benchmark code.  A call resolves by name:
see :func:`_targets`.
"""

import ast
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fiberwalk").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
OUTSIDE = DEMOS + [path for path in BENCHMARK if path.name != "test_perfbench.py"]


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _defined(trees):
    """``{name: 'file:line'}`` of every non-dunder function, method and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name: f"{path.name}:{node.lineno}"
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name)
    }


def _referenced(trees, imports, strings):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif imports and isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[\w.]+", node.value):
                    names.update(node.value.split("."))
    return names


def test_every_package_name_has_a_non_test_caller():
    package = _trees(PACKAGE)
    outside = _trees(OUTSIDE)
    perfbench = [(path, tree) for path, tree in outside if path.parent.name == "perfbench"]
    callers = (
        _referenced(package, imports=False, strings=False)
        | _referenced(outside, imports=True, strings=False)
        | _referenced(perfbench, imports=False, strings=True)
    )
    uncalled = {name: where for name, where in _defined(package).items() if name not in callers}
    assert not uncalled, f"defined but called only by tests, or by nothing: {uncalled}"


class Signature(NamedTuple):
    """What a call can pass: ``positional`` in order (``self`` and ``cls`` left out)
    and the keyword-only ``params``; ``defaulted`` are the options among them."""

    qualname: str
    positional: tuple
    params: frozenset
    defaulted: tuple
    where: str


def _function(fn, qualname, method, where):
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if method and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}:
        positional = positional[1:]
    params = frozenset(positional) | {a.arg for a in args.kwonlyargs}
    return Signature(qualname, tuple(positional), params, tuple(defaulted), where)


def _class(cls, where):
    """The class's ``__init__``, else its dataclass fields, else no parameters."""
    init = next((n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None)
    if init is not None:
        return _function(init, cls.name, True, where)
    dataclass = any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )
    fields = [
        n for n in cls.body
        if dataclass and isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
    ]
    positional = tuple(n.target.id for n in fields)
    defaulted = tuple(n.target.id for n in fields if n.value is not None)
    return Signature(cls.name, positional, frozenset(positional), defaulted, where)


def _signatures(trees):
    """``(bare, attribute)``: ``{name: [Signature]}`` of the functions and classes a bare
    name can call (every one but methods), and of everything an attribute name can call."""
    bare, attribute = {}, {}

    def visit(body, path, owner):
        for node in body:
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ClassDef):
                sig = _class(node, where)
                visit(node.body, path, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "__init__":  # the class's own signature
                    continue
                qualname = f"{owner}.{node.name}" if owner else node.name
                sig = _function(node, qualname, owner is not None, where)
                visit(node.body, path, None)
            else:
                continue
            if owner is None:
                bare.setdefault(node.name, []).append(sig)
            attribute.setdefault(node.name, []).append(sig)

    for path, tree in trees:
        visit(tree.body, path, None)
    return bare, attribute


def _calls(node, cls=None):
    """Every call under ``node``, with the name of the class around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, cls
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _targets(call, cls, aliases, tables, bare, attribute):
    """The signatures ``call`` resolves to, or ``None`` for a bare name the package does
    not define, whose keywords then pass to every package function.

    A bare name, read through ``import ... as``, resolves to the functions and classes of
    that name, and an attribute name to every function, method and class of that name;
    ``cls(...)`` resolves to the class around it, and ``D[key](...)`` to every function
    in ``D``, a module-level dict of functions.  A class resolves to its ``__init__`` or
    its dataclass fields.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        return attribute.get(func.attr, [])
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        names = tables.get(func.value.id, ())
        return [sig for name in names for sig in bare.get(aliases.get(name, name), [])]
    if isinstance(func, ast.Name):
        name = cls if func.id == "cls" and cls else aliases.get(func.id, func.id)
        return bare.get(name)
    return []


def _passed(trees, bare, attribute):
    """``{(qualname, param)}`` of every parameter some call in ``trees`` passes."""
    every = [sig for sigs in attribute.values() for sig in sigs]
    passed = set()
    for _, tree in trees:
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if alias.asname
        }
        tables = {
            node.targets[0].id: [v.id for v in node.value.values]
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Dict)
            and all(isinstance(v, ast.Name) for v in node.value.values)
        }
        for call, cls in _calls(tree):
            keywords = {k.arg for k in call.keywords}
            targets = _targets(call, cls, aliases, tables, bare, attribute)
            if targets is None:
                passed |= {(sig.qualname, k) for sig in every for k in keywords & sig.params}
                continue
            star = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            for sig in targets:
                names = sig.params if star else {*sig.positional[:len(call.args)], *keywords}
                passed |= {(sig.qualname, name) for name in names}
    return passed


def test_every_package_option_is_passed_outside_the_tests():
    bare, attribute = _signatures(_trees(PACKAGE))
    passed = _passed(_trees(PACKAGE + DEMOS + BENCHMARK), bare, attribute)
    signatures = {sig for sigs in attribute.values() for sig in sigs}
    unpassed = sorted(
        f"{sig.qualname}({name}) at {sig.where}"
        for sig in signatures
        for name in sig.defaulted
        if (sig.qualname, name) not in passed
    )
    assert not unpassed, f"options that only tests pass, or nothing: {unpassed}"
