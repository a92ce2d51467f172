"""The run fingerprint, pinned.

A seeded ``train`` and a two-iteration ``prune`` of LeNet-300-100 and of
LeNet-5, on MNIST-shaped IDX data from ``perfbench/idxgen.py``, must write a
``history.jsonl`` and ``weights.bin`` files whose sha256 matches the table
below. Both runs leave dead-end targets in every hidden layer, so the bytes
cover the live subnetwork's dense blocks and its conv channel blocks.

The bytes depend on the OpenBLAS build and on the kernel it loads for the
CPU, so the table is keyed by both. A key not in the table skips the test
and prints the hashes. A change that moves the bits on purpose updates the
table once and says why.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench.idxgen import write_dataset
from prune_relief.cli import main

# model -> pruning samples per iteration
MODELS = {"lenet300100": 128, "lenet5": 64}

# (BLAS build, OpenBLAS kernel) -> model -> run file -> sha256
PINNED = {
    ("scipy-openblas 0.3.31.188.0", "SkylakeX"): {
        "lenet300100": {
            "history.jsonl":
                "4d8571024543bf7ebd120789c32cb6f1de8d4f44a9534190d71883e758478564",
            "best/weights.bin":
                "520204d3ab0f1cf4a15f74019ecad56e309e7db5d8e517606bab9fb3f91a7f91",
            "initial/weights.bin":
                "182bc337622a6e1cdd422508a256a570d74ac0ea86713c05a080584e4dc49c96",
            "iterations/iter_01/weights.bin":
                "7805a9717c421945e15955f5b4d4c27b31318cc2c988997651dc450bb2f33cbe",
            "iterations/iter_02/weights.bin":
                "520204d3ab0f1cf4a15f74019ecad56e309e7db5d8e517606bab9fb3f91a7f91",
            "model/weights.bin":
                "b6c3e65135ed9ae8ad797677f5bbad2ee94ede15eec884e5a1dc057d0cb26708",
        },
        "lenet5": {
            "history.jsonl":
                "217d55991711ddf680dd3aa7492afd1a9a3d200e58b2e14b2cad8919b644fb49",
            "best/weights.bin":
                "2dda8affdbd7e300e8f7868006c81d6c8c55d1163be2d47f6893b6ea0d6bc6cd",
            "initial/weights.bin":
                "f28d5510b4a3abe4dd9e65b75a5837bb8468134546f963bf0fb07365cf1b97ab",
            "iterations/iter_01/weights.bin":
                "59d6f6cd1a650a4e9e6273cbf6fa21a2171b5fc7badb2d4b5d4ce4139bada5d5",
            "iterations/iter_02/weights.bin":
                "2dda8affdbd7e300e8f7868006c81d6c8c55d1163be2d47f6893b6ea0d6bc6cd",
            "model/weights.bin":
                "35c253dbd070bcaa18b03ae1e22bcfeea6717612e90be05b7cc070effe6b3622",
        },
    },
    ("scipy-openblas 0.3.31.188.0", "Haswell"): {
        "lenet300100": {
            "history.jsonl":
                "a212b40300f49a784f654f418cd76130e5a809df46490e09329531af80710de2",
            "best/weights.bin":
                "72159d6f052d6d22c0a9a4a04d19540f3422a62727645418fabcb13ff0ec192f",
            "initial/weights.bin":
                "182bc337622a6e1cdd422508a256a570d74ac0ea86713c05a080584e4dc49c96",
            "iterations/iter_01/weights.bin":
                "b57535dee2556871e58f9c247de9dc24c3baac32807f3d612484053b43650e8f",
            "iterations/iter_02/weights.bin":
                "72159d6f052d6d22c0a9a4a04d19540f3422a62727645418fabcb13ff0ec192f",
            "model/weights.bin":
                "2ab1119f221a09b13c7b533cae5127df0b09569f81b05b85c622ea41504a6876",
        },
        "lenet5": {
            "history.jsonl":
                "a2ec655151292af542f0a5d857bc9c9ebb22c3359644fb3f673a5842ce00ee8f",
            "best/weights.bin":
                "81cb32db9c295e622baeb59a84d0698350f174068cb196a2b323a7a7b42ff1d9",
            "initial/weights.bin":
                "f28d5510b4a3abe4dd9e65b75a5837bb8468134546f963bf0fb07365cf1b97ab",
            "iterations/iter_01/weights.bin":
                "7938b655652f75230b64718e8704848b2981f0b7943ebcc667e522a1fa7a0c5f",
            "iterations/iter_02/weights.bin":
                "81cb32db9c295e622baeb59a84d0698350f174068cb196a2b323a7a7b42ff1d9",
            "model/weights.bin":
                "e4325eafc6ff19c1a3ffb24ad832573005327aaf969d100e7a1e2ccaa5c6bf8f",
        },
    },
    ("scipy-openblas 0.3.31.188.0", "Sandybridge"): {
        "lenet300100": {
            "history.jsonl":
                "2c2c93488292b46cea9e2d616e337120668ba27138f6d899067959bff675c780",
            "best/weights.bin":
                "a6dd373408963e359ce29a24662fe58d115b8601deb6c67d1bf2cb0f2140425d",
            "initial/weights.bin":
                "182bc337622a6e1cdd422508a256a570d74ac0ea86713c05a080584e4dc49c96",
            "iterations/iter_01/weights.bin":
                "9681bdd499d37440dc5a923ef7e7ff9eccb0add905921de174d89b02fad806a4",
            "iterations/iter_02/weights.bin":
                "a6dd373408963e359ce29a24662fe58d115b8601deb6c67d1bf2cb0f2140425d",
            "model/weights.bin":
                "75feee146b0df8e958c75354e3e032f5bd9dcacc345bf0238ed1ed566739dba5",
        },
        "lenet5": {
            "history.jsonl":
                "423fd9509ea867ed56099b6a1f952496f1480d1f86c88a655ec389fd84837151",
            "best/weights.bin":
                "c1292ade5aa9d34b6bdd210517129bf1c52f34ede1c67dff87ad32bd42740af4",
            "initial/weights.bin":
                "f28d5510b4a3abe4dd9e65b75a5837bb8468134546f963bf0fb07365cf1b97ab",
            "iterations/iter_01/weights.bin":
                "635d2a512812393e3069f33c87e4b4d7fdb9e37e3bbedb454361e1fceff2b6a8",
            "iterations/iter_02/weights.bin":
                "c1292ade5aa9d34b6bdd210517129bf1c52f34ede1c67dff87ad32bd42740af4",
            "model/weights.bin":
                "6f264de173a992922902a4d791e3e8cacb12576273408ae31e0d04fa088543de",
        },
    },
}


def blas_key() -> tuple[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 has no dict form
        blas = {}
    # OpenBLAS names the kernel it loads on stderr ("Core: Haswell")
    err = subprocess.run([sys.executable, "-c", "import numpy"],
                         env=dict(os.environ, OPENBLAS_VERBOSE="2"),
                         capture_output=True, text=True).stderr
    core = next((ln.split(":", 1)[1].strip() for ln in err.splitlines()
                 if ln.startswith("Core:")), "unknown")
    return f"{blas.get('name')} {blas.get('version')}", core


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """model -> (run file -> sha256, dead-end targets per prunable layer
    after the last iteration)."""
    root = tmp_path_factory.mktemp("fingerprint")
    data = write_dataset(root / "data", seed=1, n_train=512, n_test=128)
    opt = {"optimizer": "adam", "epochs": 1, "batch_size": 32, "lr": 1e-3,
           "weight_decay": 5e-4}
    out = {}
    for model, n_pruning in MODELS.items():
        run = root / model
        cfg = {"seed": 1, "model": model,
               "dataset": {"kind": "idx",
                           **{k: str(v) for k, v in data.items()}},
               "train": opt,
               "prune": {"n_pruning_samples": n_pruning, "iterations": 2},
               "out": str(run)}
        path = root / f"{model}.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["prune", "--config", str(path)]) == 0
        files = [run / "history.jsonl", *sorted(run.rglob("weights.bin"))]
        hashes = {f.relative_to(run).as_posix():
                  hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
        last = json.loads((run / "history.jsonl").read_text().splitlines()[-1])
        out[model] = hashes, [e["dead_end_targets"] for e in last["per_layer"]]
    return out


@pytest.mark.parametrize("model", MODELS)
def test_run_bytes_are_pinned(runs, model):
    hashes, dead_end = runs[model]
    assert all(dead_end[:-1]) and dead_end[-1] == 0
    key = blas_key()
    if key not in PINNED:
        print(json.dumps({"key": key, model: hashes}, indent=1))
        pytest.skip(f"no pinned run bytes for {key}")
    assert hashes == PINNED[key][model]
