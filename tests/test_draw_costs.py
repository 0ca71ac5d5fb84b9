"""``tools/draw_costs.py`` on its smallest estimate."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).parents[1] / "tools" / "draw_costs.py"


def test_lollipop_draws_are_printed():
    out = subprocess.run([sys.executable, str(_TOOL), "lollipop"],
                         capture_output=True, text=True, check=True).stdout
    name, steps, fused, drawn, ahead, blocks, grid, *times = out.split()
    steps, fused, drawn, ahead, blocks, grid = map(int, (steps, fused, drawn, ahead, blocks, grid))
    # Six trials, all on the fused loop: each draws at least one block, and
    # fewer than 1024 uniforms past its last step.  They walk on rank rows,
    # so every block past a trial's first is ranked on the grid.
    assert name == "lollipop" and 0 < steps == fused <= drawn < fused + 6 * 1024
    assert ahead == 0 and blocks >= 6 and grid == blocks - 6
    assert len(times) == 2 and all(float(t) > 0 for t in times)


def test_tails_read_their_numpy_drawn_blocks():
    """600 commutes on ``triangle`` walk in lockstep and hand fewer than
    ``LOCKSTEP_MIN_LIVE`` (48) tails to the fused loop.  Each gets a
    numpy-drawn block of 32 draws; the tails walk 51 steps, none past its
    block, so they draw no uniform from a generator."""
    out = subprocess.run([sys.executable, str(_TOOL), "tails"],
                         capture_output=True, text=True, check=True).stdout
    name, steps, fused, drawn, ahead, blocks, grid, *times = out.split()
    assert name == "tails" and int(steps) == 2309 and int(fused) == 51
    assert int(ahead) == 28 * 32 and int(drawn) == int(blocks) == int(grid) == 0


def test_unknown_estimate_is_refused():
    done = subprocess.run([sys.executable, str(_TOOL), "nonesuch"], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown estimate 'nonesuch'" in done.stderr
