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

import pytest

from bench.harness import host
from perfbench.idxgen import write_dataset
from prune_relief.cli import main

# model -> pruning samples per iteration
MODELS = {"lenet300100": 128, "lenet5": 64}

# (BLAS build, OpenBLAS kernel) -> model -> run file -> sha256
PINNED = {
    ("scipy-openblas 0.3.31.188.0", "SkylakeX"): {
        "lenet300100": {
            "history.jsonl":
                "1edb0c89543c9b7bc4c9dca77315d5558d03ddbb0e1d1f53fd002f6fd9a31fa7",
            "best/weights.bin":
                "ab374a45845257ee50099f84f1634c91e7f203bf88dd428917276e30c705af45",
            "initial/weights.bin":
                "182bc337622a6e1cdd422508a256a570d74ac0ea86713c05a080584e4dc49c96",
            "iterations/iter_01/weights.bin":
                "117b5f84a9dff7d6e9e29faf87c49354181e32f009c8cad05f22d6702c4aa83e",
            "iterations/iter_02/weights.bin":
                "ab374a45845257ee50099f84f1634c91e7f203bf88dd428917276e30c705af45",
            "model/weights.bin":
                "98a2a7978882bd87973d550c16f24682baa518e890ade0c73e7155b0161c0de2",
        },
        "lenet5": {
            "history.jsonl":
                "04dcf3c99530ba202c5771891f96ddbb4d1bcb34916a9f56b4be4fbe518f5843",
            "best/weights.bin":
                "0ca7cbcf58a8c23c4611eebc6d6457cc8aa91fb36817e7b89eb5faf9ec70beae",
            "initial/weights.bin":
                "f28d5510b4a3abe4dd9e65b75a5837bb8468134546f963bf0fb07365cf1b97ab",
            "iterations/iter_01/weights.bin":
                "3590c089a400959c5b348cb8d6402743922522da39668a95ff1d7de7d4c37aa3",
            "iterations/iter_02/weights.bin":
                "0ca7cbcf58a8c23c4611eebc6d6457cc8aa91fb36817e7b89eb5faf9ec70beae",
            "model/weights.bin":
                "ee913aff4e9c7a65c0d77c5ec84d72131e981adf909a4f982548d72836e4a174",
        },
    },
    ("scipy-openblas 0.3.31.188.0", "Haswell"): {
        "lenet300100": {
            "history.jsonl":
                "27aed1b03314865bb1a5a7821123bd0b362dd201e863e576b92b732a8636d444",
            "best/weights.bin":
                "6790817fb933f8f2a207952450076f9fff5935ac72bae032245eac6695bedd07",
            "initial/weights.bin":
                "182bc337622a6e1cdd422508a256a570d74ac0ea86713c05a080584e4dc49c96",
            "iterations/iter_01/weights.bin":
                "00e8fa2f02a6d670f71a77d0d4db9c00e7116edf43df48592480e329a6591e45",
            "iterations/iter_02/weights.bin":
                "6790817fb933f8f2a207952450076f9fff5935ac72bae032245eac6695bedd07",
            "model/weights.bin":
                "8388b9b098557d36dc78e40b2c7a3af70156e72cee41551d23a679cb09dee881",
        },
        "lenet5": {
            "history.jsonl":
                "4a44da0e7e2213b6bd808bcf71ba804f2df6c4dc91bcc1e2d3b3a29e1f8d5c8b",
            "best/weights.bin":
                "ba846e4109981f8ff19af4ce47e586aa8d044767a5d3b6dbe94a64094242634c",
            "initial/weights.bin":
                "f28d5510b4a3abe4dd9e65b75a5837bb8468134546f963bf0fb07365cf1b97ab",
            "iterations/iter_01/weights.bin":
                "16539fa0e1621c93772ff0a6b2eff766c0ea450af6d2594f4d46d1d89d7b8239",
            "iterations/iter_02/weights.bin":
                "ba846e4109981f8ff19af4ce47e586aa8d044767a5d3b6dbe94a64094242634c",
            "model/weights.bin":
                "394d1170a45d4d374fbae21060ee6c8a27f16ac418d20f05a4f879d350396ce9",
        },
    },
    ("scipy-openblas 0.3.31.188.0", "Sandybridge"): {
        "lenet300100": {
            "history.jsonl":
                "88a905bd2ac4e4f7e43a92f716d3d8c455d6dc6c7f5b09023eec6a9ed14bf6c0",
            "best/weights.bin":
                "335152cf94a3b8f4641d53c29706f306dd59a5c9117778b2e3a96f53d31344e2",
            "initial/weights.bin":
                "182bc337622a6e1cdd422508a256a570d74ac0ea86713c05a080584e4dc49c96",
            "iterations/iter_01/weights.bin":
                "acc0f2fb8c861de1fefe68429a6a1e1b3e967a310c72775450d3538640c0ead3",
            "iterations/iter_02/weights.bin":
                "335152cf94a3b8f4641d53c29706f306dd59a5c9117778b2e3a96f53d31344e2",
            "model/weights.bin":
                "c8561f7fad0a12ceaef41e807320b4ec24ee946b6b9b437f84769f0555f3a0eb",
        },
        "lenet5": {
            "history.jsonl":
                "a249144abb8223f0778282a51d6979f24527cfcf45ea5c97dcdfc6b4f86b30de",
            "best/weights.bin":
                "25d2ddff90743a4129a7c285d65a36de9e3eedf49388175841cd50b49635f0f8",
            "initial/weights.bin":
                "f28d5510b4a3abe4dd9e65b75a5837bb8468134546f963bf0fb07365cf1b97ab",
            "iterations/iter_01/weights.bin":
                "627fb70634ee9e428df50d2abaa800a277fd6b044a00786b7f6df491d3658b9e",
            "iterations/iter_02/weights.bin":
                "25d2ddff90743a4129a7c285d65a36de9e3eedf49388175841cd50b49635f0f8",
            "model/weights.bin":
                "17591b38e47c51dadf6ade2185a90a0c6372056a92e1b3e66cafa22eabf248fb",
        },
    },
}


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
    record = host()
    key = record["blas"], record["openblas_core"]
    if key not in PINNED:
        print(json.dumps({"key": key, model: hashes}, indent=1))
        pytest.skip(f"no pinned run bytes for {key}")
    assert hashes == PINNED[key][model]
