"""The package namespace: what `from spectral_delta import *` exports."""

import importlib
import pkgutil
import types

import spectral_delta
from spectral_delta import Q, Z, hochster_betti_table, rp2_complex, sweep


def test_all_matches_the_public_namespace():
    missing = [name for name in spectral_delta.__all__
               if not hasattr(spectral_delta, name)]
    assert missing == []
    public = {name for name, obj in vars(spectral_delta).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert public == set(spectral_delta.__all__)


def _memo_tables():
    """Every lru_cache defined in a module of the package, or in a class
    of one, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(spectral_delta.__path__):
        mod = importlib.import_module(f"spectral_delta.{info.name}")
        spaces = [vars(mod)] + [vars(obj) for obj in vars(mod).values()
                                if isinstance(obj, type)]
        for ns in spaces:
            for obj in ns.values():
                if (hasattr(obj, "cache_info")
                        and obj.__module__ == mod.__name__):
                    found[f"{mod.__name__}.{obj.__qualname__}"] = obj
    return found


def test_clear_caches_empties_every_bounded_memo_table():
    tables = _memo_tables()
    assert "spectral_delta.homology._reduction" in tables
    assert {name for name, memo in tables.items()
            if memo.cache_parameters()["maxsize"] is None} == set()
    sweep(3, coeffs=(Z, Q), threads=1)
    hochster_betti_table(rp2_complex(), Q)
    assert {name for name, memo in tables.items()
            if memo.cache_info().currsize == 0} == set()
    spectral_delta.clear_caches()
    assert {name for name, memo in tables.items()
            if memo.cache_info().currsize} == set()
