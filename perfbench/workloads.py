"""Benchmark workloads: model, data sizes and the run config each one uses.

Every workload runs the same closed-loop CLI sequence (one client; each
command starts after the previous one exits):

    train -> prune -> report -> scores -> bounds -> eval

``mlp_train``     LeNet-300-100 with multi-epoch training and retraining;
                  dense forward/backward and Adam do most of the work.
``lenet5_train``  LeNet-5 on a small split, short training, two iterations,
                  ``bounds`` on the first conv layer; the only workload that
                  runs conv, max-pool, im2col/col2im and conv scoring.
``prune_sweep``   LeNet-300-100 on the paper's 15-iteration schedule with a
                  small split, one retrain epoch and a pruning set as large
                  as the split; scoring, per-target selection, masking and
                  checkpoint writes are a large share of ``prune``.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n_train: int
    n_test: int
    train_epochs: int
    retrain_epochs: int
    iterations: int
    n_pruning_samples: int
    bounds_layer: int
    batch_size: int = 128

    def config(self, seed: int, data: dict) -> dict:
        """The run config the CLI receives; ``data`` maps split files."""
        def opt(epochs):
            return {"optimizer": "adam", "epochs": epochs,
                    "batch_size": self.batch_size, "lr": 1e-3,
                    "weight_decay": 5e-4}
        return {
            "seed": seed,
            "model": self.model,
            "dataset": {"kind": "idx", **{k: str(v) for k, v in data.items()}},
            "train": opt(self.train_epochs),
            "retrain": opt(self.retrain_epochs),
            "prune": {"alpha_fc": 0.95,
                      "alpha_conv": 0.9,
                      "n_pruning_samples": self.n_pruning_samples,
                      "iterations": self.iterations,
                      "retrain_mode": "reinit",
                      "reinit_draw": "original",
                      # generous, so every seed yields a best iteration whose
                      # checkpoint the checks can load
                      "drop_tolerance": 50.0},
        }


WORKLOADS = {
    w.name: w for w in (
        # train epochs: enough that training, not interpreter start-up,
        # data loading and evaluation, is most of the train command's wall
        # time, which train_samples_per_s divides by
        Workload("mlp_train", "lenet300100", n_train=4000, n_test=1000,
                 train_epochs=10, retrain_epochs=2, iterations=3,
                 n_pruning_samples=1000, bounds_layer=1),
        # batch 32: at 128 a 400-sample epoch is four Adam steps, which
        # leaves accuracy near chance and swinging from seed to seed
        Workload("lenet5_train", "lenet5", n_train=400, n_test=300,
                 train_epochs=4, retrain_epochs=1, iterations=2,
                 n_pruning_samples=200, bounds_layer=0, batch_size=32),
        Workload("prune_sweep", "lenet300100", n_train=1000, n_test=1000,
                 train_epochs=1, retrain_epochs=1, iterations=15,
                 n_pruning_samples=1000, bounds_layer=1),
    )
}

# tiny sizes for the smoke mode: every command and layer still runs once
SMOKE = {
    "mlp_train": replace(WORKLOADS["mlp_train"], n_train=200, n_test=100,
                         train_epochs=1, retrain_epochs=1, iterations=2,
                         n_pruning_samples=50),
    "lenet5_train": replace(WORKLOADS["lenet5_train"], n_train=64, n_test=32,
                            train_epochs=1, n_pruning_samples=16),
    "prune_sweep": replace(WORKLOADS["prune_sweep"], n_train=100, n_test=100,
                           iterations=3, n_pruning_samples=100),
}
