"""The package namespace: what `from spectral_delta import *` exports."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import spectral_delta
from spectral_delta import (FieldSpec, Q, Z, alexander_dual,
                            hochster_betti_table, rp2_complex, sweep)


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


def test_clear_caches_reaches_every_memo_a_module_holds():
    # what clear_caches walks: each object with a cache_clear in a loaded
    # module of the package, whether defined or imported there
    memos = {f"{name}.{key}": obj
             for name, mod in list(sys.modules.items())
             if name.startswith("spectral_delta.")
             for key, obj in vars(mod).items() if hasattr(obj, "cache_clear")}
    assert "spectral_delta.depth._link_unless_cone" in memos
    sweep(3, coeffs=(Z, Q, FieldSpec.prime(2)), threads=1)
    alexander_dual(rp2_complex())
    hochster_betti_table(rp2_complex(), Q)
    assert {name for name, memo in memos.items()
            if memo.cache_info().currsize == 0} == set()
    spectral_delta.clear_caches()
    assert {name for name, memo in memos.items()
            if memo.cache_info().currsize} == set()


# run with `python -S`: no site-packages on the path, so a third-party
# import fails here even when the package happens to be installed; the
# modules the import adds are printed before anything else is imported
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import spectral_delta.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(added))
print(sorted(added - set(sys.stdlib_module_names) - {"spectral_delta"}))
"""


def test_cli_imports_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE, str(src)],
                         capture_output=True, text=True, env=env, check=True)
    added, foreign = out.stdout.splitlines()
    assert "'spectral_delta'" in added
    assert foreign == "[]"
