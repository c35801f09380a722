"""Run a test's code in a fresh interpreter under a timeout, so that a hang
fails the test instead of stalling the run, and the pool starts out empty."""

import os
import pathlib
import subprocess
import sys
import textwrap

import hepkit as hk


def in_subprocess(code: str, timeout: float = 120.0) -> str:
    """The stdout of ``code`` run with hepkit and tests/ on its path; the
    test fails if it exits nonzero or outlives ``timeout`` seconds."""
    paths = [str(pathlib.Path(hk.__file__).parent.parent), str(pathlib.Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
