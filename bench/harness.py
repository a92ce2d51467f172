"""What the bench scripts share: the host record and their argument types.

Standard library only: ``peak_rss.py``'s launcher must never load NumPy.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# OpenBLAS names the kernel it loads on stderr ("Core: ...")
_PROBE = """
import json
import numpy as np
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):  # NumPy before 1.26 has no dict form
    blas = "unknown"
print(json.dumps({"numpy": np.__version__, "blas": blas}))
"""


def host(env=None) -> dict:
    """CPU, Python, BLAS thread pin, NumPy, BLAS and OpenBLAS kernel of a
    process run in ``env`` (default: this one's); NumPy loads in a child."""
    env = os.environ if env is None else env
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", _PROBE],
                           env=dict(env, OPENBLAS_VERBOSE="2"),
                           capture_output=True, text=True, check=True)
    threads = env.get("OPENBLAS_NUM_THREADS")
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "blas_threads": int(threads) if threads else None,
            **json.loads(probe.stdout),
            "openblas_core": next((ln.split(":", 1)[1].strip()
                                   for ln in probe.stderr.splitlines()
                                   if ln.startswith("Core:")), "unknown")}


def tree(text: str) -> tuple[str, Path]:
    """The ``--tree LABEL=PATH`` type: (label, the checkout's ``src``)."""
    label, sep, path = text.partition("=")
    src = Path(path).resolve() / "src"
    if not sep or not label or not (src / "prune_relief" / "cli.py").is_file():
        raise argparse.ArgumentTypeError(
            f"expected LABEL=PATH with PATH a checkout holding "
            f"src/prune_relief, got {text!r}")
    return label, src


def distinct_trees(parser, trees) -> dict:
    """``{label: src}`` of the ``--tree`` values; a repeated label exits 2."""
    out = dict(trees)
    if len(out) != len(trees):
        parser.error("tree labels must be distinct")
    return out


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low}, got {text!r}")
    return value


def count(text: str) -> int:
    """The ``--repeats`` and ``--steps`` type: an integer >= 1."""
    return _int_at_least(text, 1)


def seed(text: str) -> int:
    """The ``--seed`` type: an integer >= 0, as ``perfbench/run.py`` takes."""
    return _int_at_least(text, 0)
