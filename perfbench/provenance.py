"""Host and provenance record printed with every result."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess
import sys

import numpy as np


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def last_level_cache() -> str:
    """Size of the highest-level cache of cpu0, as sysfs reports it."""
    best = (0, "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read(os.path.join(index, "level"))
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), f"L{level} {_read(os.path.join(index, 'size'))}")
    return best[1]


def source_digest(root: str) -> str:
    """sha256 over the package sources, which names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "hepkit", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def record(root: str, **extra) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "last_level_cache": last_level_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "argv": sys.argv[1:],
        **extra,
    }
