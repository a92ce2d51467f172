"""The bench scripts' shared pieces (``bench/harness.py``), and that each
script rejects a bad argument with a usage error before doing any work."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench import harness

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_tree_accepts_a_checkout():
    assert harness.tree(f"change={ROOT}") == ("change", ROOT / "src")


@pytest.mark.parametrize("text", ["foo", "=.", "a=/missing", "a=EMPTY"])
def test_tree_rejects(tmp_path, text):
    with pytest.raises(argparse.ArgumentTypeError):
        harness.tree(text.replace("EMPTY", str(tmp_path)))


HOST_KEYS = ["cpu_model", "nproc", "python", "blas_threads", "numpy", "blas",
             "openblas_core"]


def test_host_keys():
    assert list(harness.host()) == HOST_KEYS


@pytest.mark.parametrize("path", sorted(BENCH.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_committed_results_name_their_kernel(path):
    # a result's byte and timing claims hold for the kernel it names
    host = json.loads(path.read_text())["host"]
    assert list(host) == HOST_KEYS
    assert host["openblas_core"] != "unknown"


def test_host_leaves_numpy_unloaded():
    code = ("import sys; import harness; harness.host(); "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("script,args", [
    ("step.py", ["--tree", "foo"]),
    ("step.py", ["--tree", "a=/missing"]),
    ("step.py", ["--tree", "a=.", "--tree", "a=."]),
    ("step.py", ["--repeats", "0"]),
    ("step.py", ["--steps", "0"]),
    ("step.py", ["--seed", "-1"]),
    ("peak_rss.py", ["--tree", "a=.", "--tree", "a=."]),
    ("peak_rss.py", ["--tree", "a=.", "--repeats", "0"]),
    ("peak_rss.py", ["--tree", "a=.", "--seed", "-1"]),
    ("csv_export.py", ["--repeats", "0"]),
])
def test_bad_argument_exits_2(tmp_path, script, args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), *args,
         "--out", str(tmp_path / "out.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()
