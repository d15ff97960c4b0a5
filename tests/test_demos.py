"""Smoke test: the quick demos run to completion against the current API.

Each demo runs in its own interpreter with ``src`` on the path, as the
README shows. The training and full-pipeline demos (05, 06) take tens of
seconds and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = [
    "01_tensor_and_gradients.py",
    "02_entropy_coding.py",
    "03_image_codec.py",
    "04_pframe_entropy_model.py",
    "07_metrics_and_heatmaps.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
