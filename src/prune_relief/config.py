"""Run configuration: JSON schema, validation, and network presets.

A run config is one JSON object with ``model``, ``dataset``, ``train``,
``retrain``, ``prune``, ``seed``, and ``out`` sections. Validation errors
always name the offending field path so a bad config fails with an actionable
message (exit code 2 from the CLI).

Model strings: ``lenet300100``, ``lenet5``, ``mlp:<in>-<hidden...>-<out>``,
or ``cnn:<part,...>`` where parts are ``conv<C>k<K>[s<S>][p<P>]``,
``pool<W>[s<S>]``, and ``fc<N>`` (a flatten is inserted before the first fc).
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .activations import ACTIVATIONS
from .datasets import Dataset, load_idx, normalize_pair, synth_dataset
from .errors import ConfigError
from .layers import ConvLayer, DenseLayer, Flatten, MaxPool2D
from .network import Network
from .optimizers import LrSpan, OptimizerConfig
from .pipeline import PruneConfig


def _get(d: dict, path: str, kind, default=...):
    """Fetch a dotted field with a type check; '...' default means required."""
    cur = d
    parts = path.split(".")
    for p in parts[:-1]:
        cur = cur.get(p, {}) if isinstance(cur, dict) else {}
    leaf = parts[-1]
    if not isinstance(cur, dict) or leaf not in cur:
        if default is ...:
            raise ConfigError(f"config field '{path}' is missing")
        return default
    v = cur[leaf]
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if kind is not None:
        bad = not isinstance(v, kind)
        if not bad and kind is not bool and isinstance(v, bool):
            bad = True
        if bad:
            raise ConfigError(f"config field '{path}' must be "
                              f"{kind.__name__}, got {type(v).__name__}")
    # JSON parsing accepts NaN and Infinity, which no range check rejects
    if kind is float and not np.isfinite(v):
        raise ConfigError(f"config field '{path}' must be a finite number, "
                          f"got {v}")
    return v


def _parse_optimizer(data: dict, section: str) -> OptimizerConfig:
    if not isinstance(_get(data, section, dict), dict):
        raise ConfigError(f"config section '{section}' must be an object")
    epochs = _get(data, f"{section}.epochs", int)
    sched_raw = _get(data, f"{section}.lr_schedule", list, default=None)
    if sched_raw is None:
        lr = _get(data, f"{section}.lr", float)
        spans = [LrSpan(1, epochs, lr)]
    else:
        spans = []
        for i, item in enumerate(sched_raw):
            where = f"{section}.lr_schedule[{i}]"
            if not isinstance(item, dict):
                raise ConfigError(f"config field '{where}' must be an object")
            spans.append(LrSpan(_get(item, "from", int),
                                _get(item, "to", int),
                                _get(item, "lr", float)))
    cfg = OptimizerConfig(
        kind=_get(data, f"{section}.optimizer", str, default="adam"),
        epochs=epochs,
        batch_size=_get(data, f"{section}.batch_size", int, default=128),
        lr_schedule=spans,
        weight_decay=_get(data, f"{section}.weight_decay", float, default=0.0),
        momentum=_get(data, f"{section}.momentum", float, default=0.9),
        beta1=_get(data, f"{section}.beta1", float, default=0.9),
        beta2=_get(data, f"{section}.beta2", float, default=0.999),
        eps=_get(data, f"{section}.eps", float, default=1e-8))
    try:
        return cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"in config section '{section}': {e}") from e


def _parse_prune(data: dict) -> PruneConfig:
    if not isinstance(_get(data, "prune", dict, default={}), dict):
        raise ConfigError("config section 'prune' must be an object")
    cfg = PruneConfig(
        alpha_conv=_get(data, "prune.alpha_conv", float, default=0.9),
        alpha_fc=_get(data, "prune.alpha_fc", float, default=0.95),
        n_pruning_samples=_get(data, "prune.n_pruning_samples", int,
                               default=1000),
        iterations=_get(data, "prune.iterations", int, default=1),
        retrain_mode=_get(data, "prune.retrain_mode", str, default="reinit"),
        pruning_set_policy=_get(data, "prune.pruning_set_policy", str,
                                default="resample"),
        reinit_draw=_get(data, "prune.reinit_draw", str, default="original"),
        drop_tolerance=_get(data, "prune.drop_tolerance", float, default=1.0))
    try:
        return cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"in config section 'prune': {e}") from e


@dataclass
class RunConfig:
    model: str
    activation: str
    dataset: dict
    train: OptimizerConfig
    retrain: OptimizerConfig
    prune: PruneConfig
    seed: int
    out: str | None


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("the config must be a JSON object")
    dataset = _get(data, "dataset", dict)
    kind = _get(data, "dataset.kind", str)
    if kind == "idx":
        for f in ("train_images", "train_labels", "test_images", "test_labels"):
            _get(data, f"dataset.{f}", str)
    elif kind == "synthetic":
        _get(data, "dataset.classes", int)
    else:
        raise ConfigError(f"config field 'dataset.kind' must be 'idx' or "
                          f"'synthetic', got {kind!r}")
    seed = _get(data, "seed", int, default=0)
    if seed < 0:
        raise ConfigError(f"config field 'seed' must be >= 0, got {seed}")
    activation = _get(data, "activation", str, default="relu")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"config field 'activation' must be one of "
                          f"{sorted(ACTIVATIONS)}, got {activation!r}")
    train = _parse_optimizer(data, "train")
    retrain = _parse_optimizer(data, "retrain") \
        if _get(data, "retrain", dict, default=None) is not None else train
    return RunConfig(
        model=_get(data, "model", str),
        activation=activation,
        dataset=dataset,
        train=train,
        retrain=retrain,
        prune=_parse_prune(data),
        seed=seed,
        out=_get(data, "out", str, default=None))


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except ValueError as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e
    return parse_config(data)


def load_dataset(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    raw = {"dataset": cfg.dataset}
    kind = cfg.dataset["kind"]
    if kind == "idx":
        train = load_idx(cfg.dataset["train_images"],
                         cfg.dataset["train_labels"])
        test = load_idx(cfg.dataset["test_images"], cfg.dataset["test_labels"])
        for split, d in (("train", train), ("test", test)):
            if d.n == 0:
                raise ConfigError(
                    f"the {split} split ({cfg.dataset[f'{split}_images']}) "
                    f"has no samples")
    else:
        classes = _get(raw, "dataset.classes", int)
        n_train = _get(raw, "dataset.n_train", int, default=2000)
        n_test = _get(raw, "dataset.n_test", int, default=500)
        dim = _get(raw, "dataset.dim", int, default=16)
        spread = _get(raw, "dataset.spread", float, default=6.0)
        dseed = _get(raw, "dataset.seed", int, default=cfg.seed)
        train = synth_dataset(dseed, n_train, classes, dim, spread, split=0)
        test = synth_dataset(dseed, n_test, classes, dim, spread, split=1)
    limit = _get(raw, "dataset.limit_train", int, default=0)
    if limit < 0:
        raise ConfigError(f"config field 'dataset.limit_train' must be >= 0, "
                          f"got {limit}")
    if limit:
        train = train.head(limit)
    classes = _get(raw, "dataset.classes", int, default=0)
    top = max(int(d.labels.max()) for d in (train, test))
    if classes and top >= classes:
        raise ConfigError(f"the dataset has label {top}, but config field "
                          f"'dataset.classes' is {classes}")
    if _get(raw, "dataset.normalize", bool, default=False):
        train, test = normalize_pair(train, test)
    return train, test


_CONV_RE = re.compile(r"^conv(\d+)k(\d+)(?:s(\d+))?(?:p(\d+))?$")
_POOL_RE = re.compile(r"^pool(\d+)(?:s(\d+))?$")
_FC_RE = re.compile(r"^fc(\d+)$")


def _zeros_dense(n_in: int, n_out: int, activation: str) -> DenseLayer:
    return DenseLayer(np.zeros((n_out, n_in), np.float32),
                      np.zeros(n_out, np.float32), activation)


def _check_size(model: str, part: str, size: int) -> None:
    if size < 1:
        raise ConfigError(f"model {model!r}: part {part!r} has size {size}; "
                          f"sizes must be >= 1")


def _flat_dim(shape) -> int:
    return int(np.prod(shape))


def build_network(model: str, input_shape, classes: int,
                  activation: str = "relu") -> Network:
    """Instantiate a model string with zero weights (init comes later)."""
    input_shape = tuple(int(d) for d in input_shape)
    if classes < 2:
        raise ConfigError(f"a classifier needs >= 2 classes, got {classes}")
    if model == "lenet300100":
        if _flat_dim(input_shape) != 784:
            raise ConfigError(
                f"model 'lenet300100' expects 784 input values, dataset "
                f"samples have shape {input_shape}")
        model = f"mlp:784-300-100-{classes}"
    elif model == "lenet5":
        if len(input_shape) != 3 or input_shape[1:] != (28, 28):
            raise ConfigError(
                f"model 'lenet5' expects 28x28 image inputs, dataset samples "
                f"have shape {input_shape}")
        model = f"cnn:conv20k5,pool2,conv50k5,pool2,fc500,fc{classes}"

    if model.startswith("mlp:"):
        try:
            dims = [int(d) for d in model[4:].split("-")]
        except ValueError:
            raise ConfigError(f"cannot parse model string {model!r}") from None
        if len(dims) < 2:
            raise ConfigError(f"model {model!r} needs at least input and "
                              f"output sizes")
        for d in dims:
            _check_size(model, str(d), d)
        if dims[0] != _flat_dim(input_shape):
            raise ConfigError(
                f"model {model!r} expects {dims[0]} input values, dataset "
                f"samples have shape {input_shape}")
        if dims[-1] != classes:
            raise ConfigError(f"model {model!r} emits {dims[-1]} logits but "
                              f"the dataset has {classes} classes")
        layers: list = [Flatten()]
        for a, b in zip(dims[:-2], dims[1:-1]):
            layers.append(_zeros_dense(a, b, activation))
        layers.append(_zeros_dense(dims[-2], dims[-1], "identity"))
        return Network(layers, input_shape, classes)

    if model.startswith("cnn:"):
        if len(input_shape) != 3:
            raise ConfigError(f"model {model!r} needs (channels, h, w) "
                              f"inputs, dataset samples have shape {input_shape}")
        layers = []
        cur = input_shape
        flat = False
        for part in model[4:].split(","):
            part = part.strip()
            try:
                if m := _CONV_RE.match(part):
                    if flat:
                        raise ConfigError(f"model {model!r}: conv after fc")
                    c_out, k = int(m.group(1)), int(m.group(2))
                    _check_size(model, part, min(c_out, k))
                    s = int(m.group(3) or 1)
                    p = int(m.group(4) or 0)
                    layers.append(ConvLayer(
                        np.zeros((c_out, cur[0], k, k), np.float32),
                        np.zeros(c_out, np.float32), activation,
                        (s, s), (p, p)))
                    cur = layers[-1].output_shape(cur)
                elif m := _POOL_RE.match(part):
                    if flat:
                        raise ConfigError(f"model {model!r}: pool after fc")
                    w = int(m.group(1))
                    _check_size(model, part, w)
                    s = int(m.group(2) or w)
                    layers.append(MaxPool2D((w, w), (s, s)))
                    cur = layers[-1].output_shape(cur)
                elif m := _FC_RE.match(part):
                    if not flat:
                        layers.append(Flatten())
                        cur = layers[-1].output_shape(cur)
                        flat = True
                    units = int(m.group(1))
                    _check_size(model, part, units)
                    layers.append(_zeros_dense(cur[0], units, activation))
                    cur = layers[-1].output_shape(cur)
                else:
                    raise ConfigError(f"model {model!r}: cannot parse part "
                                      f"{part!r}")
            except ConfigError:
                raise
            except Exception as e:
                raise ConfigError(f"model {model!r}: part {part!r} does not "
                                  f"fit input {input_shape}: {e}") from e
        if not flat:
            raise ConfigError(f"model {model!r} must end with an fc part")
        last = layers[-1]
        if last.fan_out != classes:
            raise ConfigError(f"model {model!r} emits {last.fan_out} logits "
                              f"but the dataset has {classes} classes")
        layers[-1] = DenseLayer(last.weights, last.bias, "identity")
        return Network(layers, input_shape, classes)

    raise ConfigError(
        f"unknown model {model!r}; expected 'lenet300100', 'lenet5', "
        f"'mlp:<dims>', or 'cnn:<parts>'")


def infer_classes(cfg: RunConfig, train: Dataset) -> int:
    explicit = _get({"dataset": cfg.dataset}, "dataset.classes", int, default=0)
    if explicit:
        return explicit
    return int(train.labels.max()) + 1
