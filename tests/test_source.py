"""Checks on the library's source text itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rntk"

# every protocol spec answers label(selector, C), though the baseline
# specs' labels do not depend on the selector
_SHARED_INTERFACE = {("label", "selector")}


def _unread_parameters(path):
    """'function.parameter' for each parameter its function never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}.{p}" for p in params
                   if p not in read and (name, p) not in _SHARED_INTERFACE]
    return unread


def test_every_parameter_is_read():
    unread = {path.name: _unread_parameters(path) for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in unread.items() if v} == {}


def test_empirical_suite_is_the_one_working_set_builder():
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    builders = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                for n in ast.walk(f)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_WorkingSet"}
    assert builders == {"empirical_suite"}


def test_the_split_builder_and_smo_train_are_the_gram_checkers():
    # a C path reuses its split only if every other route checks its Gram
    callers = {f.name for path in sorted(SRC.glob("*.py"))
               for f in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(f, ast.FunctionDef)
               for n in ast.walk(f)
               if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_check_gram"}
    assert callers == {"_checked_split", "smo_train"}
