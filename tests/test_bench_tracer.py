"""The benchmark's tracer wraps collisionlab entry points by attribute name.

``perfbench/tracing.py`` reads ``owner.__dict__[attr]`` for every target, so
a renamed or removed entry point makes every traced benchmark op fail.
"""

import importlib.util
from pathlib import Path

from collisionlab import (
    _parallel,
    collision_stats,
    experiment_cli,
    graph_core,
    interacting,
    models,
    mtp_check,
    walk_engine,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    mods = {"experiment_cli": experiment_cli, "models": models, "graph_core": graph_core,
            "walk_engine": walk_engine, "collision_stats": collision_stats,
            "mtp_check": mtp_check, "interacting": interacting, "_parallel": _parallel}
    targets = _tracing()._targets(mods)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
