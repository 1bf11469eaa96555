"""Every global name the package's code loads is defined in its module.

Walks each code object of every ``convdual`` module, and of the test
oracles, with ``dis`` and checks that each ``LOAD_GLOBAL`` / ``LOAD_NAME``
resolves to a module global, a builtin or (in a class body) a name the body
itself binds.  A missing import otherwise surfaces only as a ``NameError``
when that line first runs.
"""

import builtins
import dis
import importlib
import pkgutil
import types

import pytest

import convdual

MODULES = sorted(
    ["convdual"] + [f"convdual.{m.name}" for m in pkgutil.iter_modules(convdual.__path__)]
)


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def unresolved_globals(source: str, filename: str, namespace: dict) -> list[str]:
    """``"<qualname>: <name>"`` for every global load that ``namespace``,
    the builtins and the enclosing class body leave unbound."""
    known = set(namespace) | set(vars(builtins))
    missing = set()
    for code in _code_objects(compile(source, filename, "exec")):
        local = {i.argval for i in dis.get_instructions(code) if i.opname == "STORE_NAME"}
        local.add("__annotations__")  # bound by SETUP_ANNOTATIONS in annotated bodies
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL" or (ins.opname == "LOAD_NAME" and ins.argval not in local):
                if ins.argval not in known:
                    missing.add(f"{code.co_qualname}: {ins.argval}")
    return sorted(missing)


# the test oracles take verbatim copies of library code behind mid-file imports
@pytest.mark.parametrize("name", MODULES + ["oracles"])
def test_every_loaded_global_is_defined(name):
    module = importlib.import_module(name)
    with open(module.__file__) as fh:
        source = fh.read()
    assert unresolved_globals(source, module.__file__, vars(module)) == []


def test_checker_flags_a_missing_import():
    source = (
        "from math import inf\n"
        "class C:\n    k = inf\n    j = k\n"
        "def f(g):\n    return series_distance(g, C.j)\n"
    )
    namespace: dict = {}
    exec(compile(source, "<probe>", "exec"), namespace)
    assert unresolved_globals(source, "<probe>", namespace) == ["f: series_distance"]
