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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .activations import ACTIVATIONS
from .datasets import Dataset, load_idx, normalize_pair, synth_dataset
from .errors import ConfigError
from .layers import from_record
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
        try:
            v = float(v)
        except OverflowError:
            raise ConfigError(f"config field '{path}' must be a finite "
                              f"number, got a huge integer") from None
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


def check_seed(seed: int, name: str) -> int:
    """``seed``, checked: NumPy seeds its generators with integers >= 0.
    ``name`` is the config field or flag that set it."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    return seed


def _read_fields(data: dict, section: str, cls, skip=()) -> dict:
    """The fields of the dataclass ``cls`` not in ``skip``, in declaration
    order, each read from ``section`` with its declared type and default."""
    return {f.name: _get(data, f"{section}.{f.name}", f.type, f.default)
            for f in fields(cls) if f.name not in skip}


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
        epochs=epochs, lr_schedule=spans,
        kind=_get(data, f"{section}.optimizer", str,
                  default=OptimizerConfig.kind),
        **_read_fields(data, section, OptimizerConfig,
                       skip=("kind", "epochs", "lr_schedule")))
    try:
        return cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"in config section '{section}': {e}") from e


def _parse_prune(data: dict) -> PruneConfig:
    if not isinstance(_get(data, "prune", dict, default={}), dict):
        raise ConfigError("config section 'prune' must be an object")
    cfg = PruneConfig(**_read_fields(data, "prune", PruneConfig))
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
    seed = check_seed(_get(data, "seed", int, default=0),
                      "config field 'seed'")
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


def load_dataset(cfg: RunConfig, train: bool = True,
                 test: bool = True) -> tuple[Dataset | None, Dataset | None]:
    """The (train, test) splits the config names, each None unless asked for.

    Only the splits asked for are read or generated, except that with
    ``dataset.normalize`` the test split is standardized with the training
    split's statistics, so asking for it reads the training split too. The
    checks (a split with no samples, a label at or above
    ``dataset.classes``) cover the splits read.
    """
    raw = {"dataset": cfg.dataset}
    normalize = _get(raw, "dataset.normalize", bool, default=False)
    read = {"train": train or (test and normalize), "test": test}
    splits = dict.fromkeys(read)
    if cfg.dataset["kind"] == "idx":
        for split in (s for s, wanted in read.items() if wanted):
            d = load_idx(cfg.dataset[f"{split}_images"],
                         cfg.dataset[f"{split}_labels"])
            if d.n == 0:
                raise ConfigError(
                    f"the {split} split ({cfg.dataset[f'{split}_images']}) "
                    f"has no samples")
            splits[split] = d
    else:
        classes = _get(raw, "dataset.classes", int)
        dim = _get(raw, "dataset.dim", int, default=16)
        spread = _get(raw, "dataset.spread", float, default=6.0)
        dseed = check_seed(_get(raw, "dataset.seed", int, default=cfg.seed),
                           "config field 'dataset.seed'")
        # a split is drawn as one float64 (n, dim) array, whose byte count
        # must fit NumPy's index type
        most = np.iinfo(np.intp).max // 8
        if dim > most:
            raise ConfigError("config field 'dataset.dim' is too large for "
                              "any array")
        for i, (split, default) in enumerate((("train", 2000), ("test", 500))):
            n = _get(raw, f"dataset.n_{split}", int, default=default)
            if n * max(dim, 1) > most:
                raise ConfigError(
                    f"config field 'dataset.n_{split}' is too large: "
                    f"{split} samples of dimension {dim} do not fit any array")
            if read[split]:
                splits[split] = synth_dataset(dseed, n, classes, dim, spread,
                                              split=i)
    limit = _get(raw, "dataset.limit_train", int, default=0)
    if limit < 0:
        raise ConfigError(f"config field 'dataset.limit_train' must be >= 0, "
                          f"got {limit}")
    if limit and splits["train"] is not None:
        splits["train"] = splits["train"].head(limit)
    classes = _get(raw, "dataset.classes", int, default=0)
    top = max(int(d.labels.max()) for d in splits.values() if d is not None)
    if classes and top >= classes:
        raise ConfigError(f"the dataset has label {top}, but config field "
                          f"'dataset.classes' is {classes}")
    if normalize:
        splits["train"], splits["test"] = normalize_pair(splits["train"],
                                                         splits["test"])
    return (splits["train"] if train else None), splits["test"]


_CONV_RE = re.compile(r"^conv(\d+)k(\d+)(?:s(\d+))?(?:p(\d+))?$")
_POOL_RE = re.compile(r"^pool(\d+)(?:s(\d+))?$")
_FC_RE = re.compile(r"^fc(\d+)$")


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
            if d < 1:
                raise ConfigError(f"model {model!r}: part '{d}' has size {d}; "
                                  f"sizes must be >= 1")
        if dims[0] != _flat_dim(input_shape):
            raise ConfigError(
                f"model {model!r} expects {dims[0]} input values, dataset "
                f"samples have shape {input_shape}")
        # an mlp is the fc parts of its hidden and output sizes
        parts = [f"fc{d}" for d in dims[1:]]
    elif model.startswith("cnn:"):
        if len(input_shape) != 3:
            raise ConfigError(f"model {model!r} needs (channels, h, w) "
                              f"inputs, dataset samples have shape {input_shape}")
        parts = model[4:].split(",")
    else:
        raise ConfigError(
            f"unknown model {model!r}; expected 'lenet300100', 'lenet5', "
            f"'mlp:<dims>', or 'cnn:<parts>'")

    # each part as a layer record; the last, an fc part, emits the logits
    layers = []
    cur = input_shape
    flat = False
    for j, part in enumerate(parts):
        part = part.strip()
        act = "identity" if j == len(parts) - 1 else activation
        try:
            if m := _CONV_RE.match(part):
                if flat:
                    raise ConfigError(f"model {model!r}: conv after fc")
                s = int(m.group(3) or 1)
                p = int(m.group(4) or 0)
                rec = {"kind": "conv", "activation": act,
                       "out": int(m.group(1)), "in": cur[0],
                       "kernel": int(m.group(2)),
                       "stride": [s, s], "padding": [p, p]}
            elif m := _POOL_RE.match(part):
                if flat:
                    raise ConfigError(f"model {model!r}: pool after fc")
                w = int(m.group(1))
                s = int(m.group(2) or w)
                rec = {"kind": "maxpool", "window": [w, w], "stride": [s, s]}
            elif m := _FC_RE.match(part):
                if not flat:
                    layers.append(from_record({"kind": "flatten"}))
                    cur = layers[-1].output_shape(cur)
                    flat = True
                rec = {"kind": "dense", "activation": act,
                       "out": int(m.group(1)), "in": cur[0]}
            else:
                raise ConfigError(f"model {model!r}: cannot parse part "
                                  f"{part!r}")
            layers.append(from_record(rec))
            cur = layers[-1].output_shape(cur)
        except ConfigError:
            raise
        except Exception as e:
            raise ConfigError(f"model {model!r}: part {part!r} does not "
                              f"fit input {input_shape}: {e}") from e
    if not flat:
        raise ConfigError(f"model {model!r} must end with an fc part")
    if layers[-1].fan_out != classes:
        raise ConfigError(f"model {model!r} emits {layers[-1].fan_out} logits "
                          f"but the dataset has {classes} classes")
    return Network(layers, input_shape, classes)


def infer_classes(cfg: RunConfig, train: Dataset) -> int:
    explicit = _get({"dataset": cfg.dataset}, "dataset.classes", int, default=0)
    if explicit:
        return explicit
    return int(train.labels.max()) + 1


def check_logits(net: Network, where, cfg: RunConfig, *splits: Dataset) -> None:
    """Raise ConfigError when ``net``, loaded from ``where``, emits fewer
    logits than the dataset has classes (as :func:`infer_classes` counts
    them over ``splits``). Training and evaluation read the logit of each
    sample's label; the commands that only score check it too, so a
    checkpoint that cannot classify the dataset fails the same way in every
    command."""
    classes = max(infer_classes(cfg, d) for d in splits)
    if net.classes < classes:
        raise ConfigError(f"the model at {where} emits {net.classes} logits "
                          f"but the dataset has {classes} classes")
