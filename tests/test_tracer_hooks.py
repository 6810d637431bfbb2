"""The benchmark tracer's hooks name functions that exist.

``perfbench/tracer.py`` patches every ``(owner, attribute)`` pair in its
``HOOKS`` table, so a renamed or deleted function breaks every traced
benchmark run.  These tests resolve the pairs the way ``Tracer.install``
does, without installing anything.  The tracer's source is read and
executed here, so no bytecode is written next to it.
"""

import importlib
import pathlib
import pkgutil
import types

import pytest

import khsing

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracer.py"


def _load_tracer():
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


tracer = _load_tracer()
MODULES = {f"khsing.{m.name}": importlib.import_module(f"khsing.{m.name}")
           for m in pkgutil.iter_modules(khsing.__path__)}


@pytest.mark.parametrize("span", sorted(tracer.HOOKS))
def test_hooked_names_resolve(span):
    resolve = tracer.Tracer(MODULES)._resolve
    for owner_path, attr in tracer.HOOKS[span]:
        owner = resolve(owner_path)
        if isinstance(owner, type):
            # install reads class attributes from the class's own __dict__
            assert attr in owner.__dict__, f"{owner_path}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), \
                f"{owner_path}.{attr}"
