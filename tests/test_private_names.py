"""Every module-level private name of the package is loaded by its code.

Walks each code object of every ``convdual`` module with ``dis``: a ``_name``
that a module's top level binds (a def, a class, an assignment or an import)
must be loaded somewhere in the package, by ``LOAD_GLOBAL``, ``LOAD_NAME``
or ``IMPORT_FROM``.  A helper whose last caller is gone otherwise stays
behind unseen, since tests may still import it.
"""

import dis
import importlib

from test_global_names import MODULES, _code_objects

LOADS = {"LOAD_GLOBAL", "LOAD_NAME", "LOAD_FROM_DICT_OR_GLOBALS", "IMPORT_FROM"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names(sources: dict[str, str]) -> dict[str, set[str]]:
    """The private names each module's top level binds, by module."""
    out = {}
    for module, source in sources.items():
        top = compile(source, module, "exec")
        out[module] = {i.argval for i in dis.get_instructions(top)
                       if i.opname == "STORE_NAME" and _is_private(i.argval)}
    return out


def loaded_names(sources: dict[str, str]) -> set[str]:
    loaded = set()
    for module, source in sources.items():
        for code in _code_objects(compile(source, module, "exec")):
            loaded.update(i.argval for i in dis.get_instructions(code) if i.opname in LOADS)
    return loaded


def unloaded_private_names(sources: dict[str, str]) -> list[str]:
    """``"<module>: <name>"`` for every private name no module loads."""
    loaded = loaded_names(sources)
    return sorted(f"{module}: {name}" for module, names in private_names(sources).items()
                  for name in names - loaded)


def _sources() -> dict[str, str]:
    sources = {}
    for name in MODULES:
        with open(importlib.import_module(name).__file__) as fh:
            sources[name] = fh.read()
    return sources


def test_every_private_name_is_loaded():
    sources = _sources()
    assert sum(map(len, private_names(sources).values())) > 100  # the walk sees the package
    assert unloaded_private_names(sources) == []


def test_checker_flags_an_unloaded_helper():
    sources = {
        "a": "from b import _used\n_LIMIT = 3\ndef _helper():\n    return _LIMIT\n"
             "def public():\n    return _used()\n",
        "b": "def _used():\n    return 1\nclass C:\n    _attr = 2\n",
    }
    assert unloaded_private_names(sources) == ["a: _helper"]
