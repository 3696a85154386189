"""The peak RSS that `scripts/console_pins.py` reads is each child's own: not
the largest over every child reaped so far (RUSAGE_CHILDREN), and not one
that starts at the runner's own peak."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# A child's ru_maxrss starts at its parent's peak, so the children are run
# from a fresh interpreter, whose peak is far below pytest's.
PARENT = """
import sys
sys.path.insert(0, sys.argv[1])
from console_pins import run
big = run([sys.executable, "-c", "b = b'x' * (96 << 20)"])
small = run([sys.executable, "-c", "pass"])
print(big[0], small[0], big[3], small[3])
"""


def test_run_reads_each_childs_own_peak():
    out = subprocess.run([sys.executable, "-c", PARENT, str(SCRIPTS)],
                         capture_output=True, text=True, check=True).stdout
    big_code, small_code, big_mb, small_mb = out.split()
    assert (big_code, small_code) == ("0", "0")
    assert float(big_mb) >= 96
    assert float(small_mb) < 40
    assert float(small_mb) < float(big_mb) / 2


# The runner itself holds 96 MB when it runs a child that holds nothing.
HELD = """
import sys
sys.path.insert(0, sys.argv[1])
from console_pins import run
held = b'x' * (96 << 20)
print(*run([sys.executable, "-c", "import sys; sys.exit(3)"]))
"""


def test_a_childs_peak_does_not_start_at_the_runners():
    # the launcher, started fresh, spawns the child, so the child's peak
    # starts at the launcher's few MB and not at the runner's 96
    code, out, err, peak_mb = subprocess.run(
        [sys.executable, "-c", HELD, str(SCRIPTS)], capture_output=True, text=True,
        check=True).stdout.split(" ")
    assert (code, out, err) == ("3", "", "")
    assert float(peak_mb) < 48
