"""``tools/exact_costs.py`` on its smallest solve."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).parents[1] / "tools" / "exact_costs.py"


def test_first_passage_costs_are_printed():
    out = subprocess.run([sys.executable, str(_TOOL), "first_passage"],
                         capture_output=True, text=True, check=True).stdout
    name, result, *figures = out.split()
    # First passage along 4 unit edges from one end to the other: 4^2 steps.
    assert (name, result) == ("first_passage", (16.0).hex())
    assert len(figures) == 4 and all(float(f) > 0 for f in figures)


def test_unknown_solve_is_refused():
    done = subprocess.run([sys.executable, str(_TOOL), "nonesuch"], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown solve 'nonesuch'" in done.stderr
