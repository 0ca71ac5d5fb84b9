"""``tools/draw_costs.py`` on its smallest estimate."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).parents[1] / "tools" / "draw_costs.py"


def test_lollipop_draws_are_printed():
    out = subprocess.run([sys.executable, str(_TOOL), "lollipop"],
                         capture_output=True, text=True, check=True).stdout
    name, steps, fused, drawn, blocks, grid, *times = out.split()
    steps, fused, drawn, blocks, grid = map(int, (steps, fused, drawn, blocks, grid))
    # Six trials, all on the fused loop: each draws at least one block, and
    # fewer than 1024 uniforms past its last step.  They walk on rank rows,
    # so every block past a trial's first is ranked on the grid.
    assert name == "lollipop" and 0 < steps == fused <= drawn < fused + 6 * 1024
    assert blocks >= 6 and grid == blocks - 6
    assert len(times) == 2 and all(float(t) > 0 for t in times)


def test_unknown_estimate_is_refused():
    done = subprocess.run([sys.executable, str(_TOOL), "nonesuch"], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown estimate 'nonesuch'" in done.stderr
