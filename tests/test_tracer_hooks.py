"""The benchmark tracer's hooks name functions that exist.

``perfbench/tracer.py`` patches every ``(owner, attribute)`` pair in its
``HOOKS`` table, so a renamed or deleted function breaks every traced
benchmark run.  These tests resolve the pairs the way ``Tracer.install``
does, without installing anything.  The tracer's source is read and
executed here, so no bytecode is written next to it.  The last test pins
the name the pipeline builds its cubes through, which the tracer wraps.
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


def test_cubes_are_built_through_the_hooked_name(monkeypatch):
    # the tracer counts the cubes the pipeline builds by wrapping
    # build_cube where its callers look it up; homology and the skein
    # check must reach every cube through that name, or a traced run
    # reads 0 on khcube.build_cube
    from khsing import genusone, invariants
    from khsing.cli import corpus_dir
    from khsing.diagram import parse
    from khsing.exactlinalg import QQ, Ring, ZZ
    from khsing.frobenius import FrobeniusAlgebra

    calls = []
    for module in (invariants, genusone):
        def counted(*args, _build=module.build_cube, **kwargs):
            calls.append(args[0])
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, "build_cube", counted)

    def load(name):
        return parse((corpus_dir() / f"{name}.json").read_text())

    d = load("tref_sing")
    F2 = Ring.prime_field(2)
    # over F2 at (0, 0) and (0, 1) the half cube, over Z at (0, 1) the
    # full one; a point read off the states builds no cube
    for ring, h, t in ((ZZ, 0, 0), (F2, 0, 0), (F2, 0, 1), (ZZ, 0, 1)):
        calls.clear()
        invariants.homology_signature(d, ring, h, t)
        assert calls == [d], (str(ring), h, t)
    # the cubes of the negative, the positive and the singular diagram
    calls.clear()
    triple = [load(f"tref_sing{end}") for end in ("_minus", "_plus", "")]
    genusone.skein_triangle_report(*triple, FrobeniusAlgebra(QQ))
    assert len(calls) == 3
