"""The benchmark's tracer wraps library functions by name.

`perfbench/tracer.py` lists them in `LAYERS`; a renamed or deleted kernel
function would only show up when a traced bench run fails.  This test reads
that list (without importing or changing the tracer) and checks that every
name resolves in its layer.
"""

import ast
from pathlib import Path

import tropgeom

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_wrapped_name_resolves():
    layers = _layers()
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(getattr(tropgeom, layer, None), name, None))
    ]
    assert missing == []


def test_the_kernel_names_are_wrapped():
    layers = _layers()
    assert {"solve_integer", "invert_unimodular"} <= set(layers["linalg"])
    assert "extreme_rays_of_system" in layers["exactgeom"]
    assert "preimage_in_span" in layers["complexes"]
