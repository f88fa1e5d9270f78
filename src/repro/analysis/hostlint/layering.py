"""The one shared ARCHITECTURE edge list and its static import walk.

This module is the single source of truth for the repo's layer map: the
``RH009`` host-lint rule and ``tests/test_layering.py`` both read
:data:`ALLOWED_DEPS` / :data:`EXEMPT` from here, so the static linter and
the runtime test can never disagree about which cross-layer imports are
legal.  If either one fails you changed the architecture — update this
edge list *and* ``docs/ARCHITECTURE.md`` together — or you added an
import that belongs a layer down.

Everything here is pure ``ast``: no repro module is ever imported, so the
walk cannot be fooled (or broken) by import-time side effects.
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = [
    "ALLOWED_DEPS",
    "EXEMPT",
    "package_of",
    "imported_packages",
]

#: package -> intra-repro packages it may import from.  Top-level
#: modules (config, errors, simclock) count as packages of their own
#: name; the aggregation surfaces (``cli``, ``bench`` and the package
#: ``__init__``) may import anything and are exempted below.
ALLOWED_DEPS: dict[str, set[str]] = {
    "errors": set(),
    "config": {"errors"},
    "simclock": {"errors"},
    "observability": {"errors"},
    # The C compile-and-cache helper and the REPRO_NATIVE switch, shared
    # by every layer with a native fast path.
    "native": {"errors", "config"},
    "core": {"errors", "observability", "native"},
    "wormhole": {"errors", "config", "native"},
    "analysis": {"errors", "config", "wormhole"},
    "metalium": {"errors", "wormhole", "analysis"},
    "cpuref": {"errors", "core"},
    "nbody_tt": {"errors", "core", "wormhole", "metalium", "native"},
    # The far-field port: PM mesh/Poisson numerics plus the Metalium FFT
    # kernel set; reuses nbody_tt's tiling assignment and op-mix pricing,
    # and runs its near field on a native kernel.
    "nbody_pm": {
        "errors", "core", "wormhole", "metalium", "nbody_tt", "native",
    },
    # The backends layer aggregates the competitors: registry, sharded
    # composite and RunSpec sit above all of them.
    "backends": {
        "errors", "config", "observability", "core", "wormhole",
        "metalium", "cpuref", "nbody_tt", "nbody_pm",
    },
    "telemetry": {
        "errors", "simclock", "core", "cpuref", "nbody_tt", "wormhole",
        "backends",
    },
    # The job server executes RunSpecs either as modelled campaign
    # replays (telemetry, lazily) or real integrations (core, lazily).
    "service": {"errors", "backends", "observability", "telemetry", "core"},
}

#: Modules allowed to import from any layer: the user-facing
#: aggregation points, by design at the top of the stack.
EXEMPT = {"cli", "bench", "__init__"}


def package_of(rel_parts: tuple[str, ...]) -> str:
    """The layer name for a path given relative to ``src/repro``.

    Top-level modules (``config.py``) are layers of their own stem;
    anything nested belongs to its first-level subpackage.
    """
    if len(rel_parts) == 1:
        return Path(rel_parts[0]).stem
    return rel_parts[0]


def imported_packages(
    tree: ast.Module, rel_parts: tuple[str, ...]
) -> list[tuple[str, int]]:
    """Intra-repro packages one module imports, as (layer, lineno) pairs.

    ``rel_parts`` locates the module relative to ``src/repro`` so that
    relative imports resolve to the right layer.  Sibling imports inside
    the same package are not reported (always allowed).
    """
    targets: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module == "repro" or module.startswith("repro."):
                    parts = module.split(".")
                    targets.append(
                        (parts[1] if len(parts) > 1 else "__init__",
                         node.lineno)
                    )
                continue
            # Relative import: resolve against this file's location.
            # depth = how many package levels up `level` dots reach.
            depth = len(rel_parts) - 1 - (node.level - 1)
            if depth <= 0:
                # Climbed to the repro package root (or its top-level
                # modules): `from ..errors import ...` etc.
                parts = module.split(".") if module else []
                if parts:
                    targets.append((parts[0], node.lineno))
                else:
                    # `from .. import x` — names are top-level modules
                    # or subpackages.
                    targets.extend(
                        (alias.name, node.lineno) for alias in node.names
                    )
            # depth > 0 means a sibling import inside the same
            # package — always allowed.
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    parts = alias.name.split(".")
                    targets.append(
                        (parts[1] if len(parts) > 1 else "__init__",
                         node.lineno)
                    )
    return targets
