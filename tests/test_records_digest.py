"""``scripts/records_digest.py``: how long a digested run lasts follows the
spec's loop — ``--rounds`` on collective rounds, ``--updates`` otherwise."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "records_digest.py"


def _digest(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args, flag", [
    (("hier_rounds", "--updates", "7200"), "--rounds"),
    (("pool_async", "--rounds", "3"), "--updates"),
])
def test_the_flag_that_does_not_fit_the_loop_is_an_error(args, flag):
    run = _digest(*args)
    assert run.returncode == 2 and f"give {flag}" in run.stderr


def test_rounds_set_how_many_rounds_run():
    one, two = (_digest("hier_rounds", "--rounds", n).stdout.strip() for n in ("1", "2"))
    assert len(one) == len(two) == 64 and one != two
