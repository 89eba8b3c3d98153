"""Attribute cProfile self time to the simulator's layers.

A function belongs to the layer of its module under ``src/repro/``.
Time in a builtin or third-party function (numpy, the standard library)
is charged, edge by edge, to the layer of the repro function that called
it; what non-repro code calls itself goes to ``external``.  The layers
are measured from outside, so nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import os

#: layer -> the modules (relative to ``repro``) it owns.  ``pkg.*`` owns
#: the package and everything under it; an exact name wins over a
#: package pattern.  ``""`` is ``repro/__init__.py``.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "sim.engine": ("sim", "sim.engine", "sim.effects", "sim.rng",
                   "sim.trace"),
    "sim.resources": ("sim.resources",),
    "simmpi.p2p": ("simmpi", "simmpi.world", "simmpi.p2p", "simmpi.payload",
                   "simmpi.timers"),
    "simmpi.detailed": ("simmpi.collectives_detailed", "simmpi.reduce_ops"),
    "simmpi.macro": ("simmpi.collectives_macro",),
    "simmpi.analytic": ("simmpi.analytic", "simmpi.backends"),
    "cluster": ("cluster.*",),
    "mpiio.two_phase": ("mpiio.two_phase", "mpiio.aggregation"),
    "mpiio.file": ("mpiio.*",),
    "datatypes": ("datatypes.*",),
    "parcoll": ("parcoll.*",),
    "lustre": ("lustre.*",),
    "validate": ("validate.*",),
    "workloads": ("workloads.*",),
    "harness": ("", "harness.*", "perf", "cli", "errors"),
    "faults": ("faults.*",),
    "shard": ("shard.*",),
    "service": ("service.*",),
    "analysis": ("analysis.*",),
}

EXTERNAL = "external"
LAYERS: tuple[str, ...] = (*LAYER_MODULES, EXTERNAL)

_EXACT = {m: layer for layer, mods in LAYER_MODULES.items()
          for m in mods if not m.endswith(".*")}
_PACKAGES = {m[:-2]: layer for layer, mods in LAYER_MODULES.items()
             for m in mods if m.endswith(".*")}


def layer_of_module(module: str) -> str | None:
    """The layer owning ``module`` (dotted, relative to ``repro``)."""
    if module in _EXACT:
        return _EXACT[module]
    parts = module.split(".")
    for i in range(len(parts), 0, -1):
        layer = _PACKAGES.get(".".join(parts[:i]))
        if layer is not None:
            return layer
    return None


def module_of_path(path: str, repro_root: str) -> str | None:
    """Dotted module name of a file under ``repro_root`` (else None)."""
    rel = os.path.relpath(os.path.abspath(path), repro_root)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def attribute(stats: dict, repro_root: str) -> dict[str, dict]:
    """Per-layer ``self_s`` and ``calls`` from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each caller to that edge's
    ``(cc, nc, tt, ct)``.  Every second of self time lands in exactly
    one layer, so the layers sum to the profile's total.  A repro module
    no layer names (which the self-test forbids) counts as external.
    """
    cache: dict[str, str | None] = {}

    def repro_layer(func) -> str | None:
        path = func[0]
        if path not in cache:
            mod = module_of_path(path, repro_root)
            cache[path] = None if mod is None else layer_of_module(mod)
        return cache[path]

    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = repro_layer(func)
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        out[EXTERNAL]["calls"] += nc
        charged = 0.0
        for caller, edge in callers.items():
            owner = repro_layer(caller)
            if owner is not None:
                out[owner]["self_s"] += edge[2]
                charged += edge[2]
        out[EXTERNAL]["self_s"] += tt - charged
    total = sum(v["self_s"] for v in out.values())
    for v in out.values():
        v["share"] = v["self_s"] / total if total > 0 else 0.0
    return out


def unmapped_modules(repro_root: str) -> list[str]:
    """Every module under ``repro_root`` that maps to no layer."""
    missing = []
    for dirpath, _dirs, files in os.walk(repro_root):
        for fname in files:
            if fname.endswith(".py"):
                mod = module_of_path(os.path.join(dirpath, fname), repro_root)
                if layer_of_module(mod) is None:
                    missing.append(f"repro.{mod}")
    return sorted(missing)
