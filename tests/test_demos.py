"""Each script under demos/ runs to the end and prints its pinned bytes.

The demos call the public API (superimpose, fiber_product_cone, the runs),
so a change of signature there would otherwise show up only when someone
runs them by hand.  The sha256 of each demo's stdout is pinned, so a change
to the API or to a demo's source that keeps the output keeps the bytes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_exact_cones": "2edca5c36de113104bcff518550f11515d5fc41c3d7c2c387a8b5363a8d88aaf",
    "02_subdividing_complexes": "32c268727f2568ff28c5fc559fd2d08df19277a65c0459fd7c47799c3ce44534",
    "03_curve_moduli": "6fe23c54d81574aaa8199597158a92e7decd2b13ed623d02a641fa77c4d7aa5e",
    "04_rubber_maps": "d98d52c0fe0b91e386edc8796ef961a8e14fffcdb61f3e360be45a909aaa4125",
    "05_degree_three_cover": "107fdf3c147cba08481809c94f069f3dec9fe271d24dc669d067ead0a1a67e2b",
    "06_product_verification": "ac51566d098e6159c1157554c4da6b4546a55ff8105935c70ba89e67172494cd",
}


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[script.stem], done.stdout
