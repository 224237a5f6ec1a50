"""Per-layer call counts and self time, recorded from outside the library.

The tracer wraps chosen functions of the ``spectral_delta`` modules for
the length of a ``with`` block.  Each wrapper records one span per call;
a layer's self time is the span's duration minus the time covered by
spans that started inside it.  Only aggregates are kept (calls, self
seconds and per-target extras), because a sweep makes millions of calls.

Targets are named ``<layer>.<function>``.  A target is resolved in the
module the layer names first and, when a refactor moved the function,
in any other ``spectral_delta`` module that defines it.  Modules are
looked up through ``sys.modules`` because the package attribute
``spectral_delta.depth`` is a function, not the module.  A wrapper
replaces the original in every module namespace that holds it and in
module-level registries (dicts of tuples, such as ``checks.CHECKS``), so
calls made through an imported name are seen too.  A target that cannot
be found is reported as missing and recorded as zero.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "spectral_delta"


@dataclass
class Target:
    """One traced entry point.

    ``metric`` is the name the numbers are reported under; several
    targets may share one (``serialize.parse`` covers every parser).
    ``module`` and ``name`` locate the function; ``attr`` names a method
    on the class ``name`` instead.  ``extra`` maps the call's arguments
    to a dict of counters added to the metric's totals.
    """
    metric: str
    module: str
    name: str
    attr: str | None = None
    extra: Callable[..., dict] | None = None


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    extras: dict = field(default_factory=dict)


def _matrix_cells(data, m, n, *rest, **kw):
    return {"cells": m * n}


def _homology_key(seen: set):
    def extra(K, coeff, *rest, **kw):
        key = (K, coeff)
        if key in seen:
            return {"repeats": 1}
        seen.add(key)
        return {"repeats": 0}
    return extra


# fixed here rather than read from the library, so that metric names stay
# the same when the check registry changes
CHECK_IDS = ("hartshorne", "depth_vanishing", "few_facets", "generator_count",
             "alexander_duality", "nerve", "delta_iso_nerve", "uct")


def default_targets() -> list[Target]:
    """The layer boundaries the benchmark reports on."""
    seen: set = set()
    t = [
        Target("linalg.snf_diagonal", "linalg", "snf_diagonal",
               extra=_matrix_cells),
        Target("linalg.rational_rank", "linalg", "rational_rank",
               extra=_matrix_cells),
        Target("linalg.mod_p_rank", "linalg", "mod_p_rank",
               extra=_matrix_cells),
        Target("homology.reduced_homology", "homology", "reduced_homology",
               extra=_homology_key(seen)),
        Target("homology.relative_homology", "homology", "relative_homology"),
        Target("complexes.validate", "complexes", "SimplicialComplex",
               attr="__post_init__"),
        Target("depth.depth", "depth", "depth"),
        Target("depth.hochster_betti_table", "depth", "hochster_betti_table"),
        Target("checks.run_instance", "checks", "run_instance"),
        Target("cli.main", "cli", "main"),
    ]
    for fn in ("make_complex", "restriction", "link", "alexander_dual",
               "minimal_nonfaces", "nerve"):
        t.append(Target(f"complexes.{fn}", "complexes", fn))
    for fn in ("delta_of_complex", "sr_generators", "nerve_of_facets"):
        t.append(Target(f"stanley_reisner.{fn}", "stanley_reisner", fn))
    for cid in CHECK_IDS:
        t.append(Target(f"checks.{cid}", "checks", f"check_{cid}"))
    for fn in ("parse_complex_text", "complex_from_json", "parse_primes_text",
               "primes_from_json"):
        t.append(Target("serialize.parse", "serialize", fn))
    for fn in ("render_complex_text", "complex_to_json", "render_profile_text",
               "render_generators_text", "generators_to_json"):
        t.append(Target("serialize.render", "serialize", fn))
    return t


def _package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def _resolve(target: Target):
    """(owner, attribute name, original) or None when missing."""
    home = sys.modules.get(f"{PACKAGE}.{target.module}")
    candidates = [home] if home is not None else []
    candidates += [m for m in _package_modules()
                   if m is not home and m.__name__ != PACKAGE]
    for mod in candidates:
        obj = vars(mod).get(target.name)
        if obj is None:
            continue
        if getattr(obj, "__module__", mod.__name__) != mod.__name__:
            continue  # imported here; the defining module is elsewhere
        if target.attr is None:
            return mod, target.name, obj
        fn = vars(obj).get(target.attr) if isinstance(obj, type) else None
        if fn is not None:
            return obj, target.attr, fn
    return None


class Tracer:
    """Context manager that installs the wrappers and collects stats."""

    def __init__(self, targets: list[Target] | None = None):
        self.targets = default_targets() if targets is None else targets
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._undo: list[Callable[[], None]] = []
        self._stack: list[float] = []

    def _wrap(self, metric: str, fn, extra):
        stats = self.stats.setdefault(metric, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if extra is not None:
                for k, v in extra(*args, **kwargs).items():
                    stats.extras[k] = stats.extras.get(k, 0) + v
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        if hasattr(fn, "cache_clear"):
            # the wrapper replaces a memoised function in every namespace;
            # keep its cache reachable for the cold-cache policy
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _rebind(self, original, wrapper):
        """Replace `original` wherever a package namespace holds it."""
        for mod in _package_modules():
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is original:
                    ns[key] = wrapper
                    self._undo.append(
                        lambda ns=ns, key=key: ns.__setitem__(key, original))
                elif isinstance(val, dict):
                    for dk, dv in list(val.items()):
                        if isinstance(dv, tuple) and any(x is original
                                                         for x in dv):
                            val[dk] = tuple(wrapper if x is original else x
                                            for x in dv)
                            self._undo.append(
                                lambda d=val, k=dk, v=dv: d.__setitem__(k, v))

    def __enter__(self):
        for target in self.targets:
            self.stats.setdefault(target.metric, Stat())
            found = _resolve(target)
            if found is None:
                self.missing.append(f"{target.module}.{target.name}"
                                    + (f".{target.attr}" if target.attr
                                       else ""))
                continue
            owner, attr, original = found
            wrapper = self._wrap(target.metric, original, target.extra)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append(
                    lambda o=owner, a=attr, f=original: setattr(o, a, f))
            else:
                self._rebind(original, wrapper)
        return self

    def __exit__(self, *exc):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        return False
