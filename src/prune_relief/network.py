"""Feed-forward network container and forward evaluation with capture.

A network is an ordered list of layers plus the per-sample input shape and
class count. ``forward`` can capture the full activation trace: batch X(0),
then each layer's post-activation output X(1)..X(L). The trace is what
importance scoring and deviation measurement consume, so both always see
activations from the same pass-start state of the network.

Batches go in and come out as (N, ...) arrays. Inside, conv and pool layers
carry sample-last (C, H, W, N) maps (see ``layers``): the batch is converted
once on entry when the first layer is spatial, and once on the way out, at
the ``Flatten`` after the last spatial layer or, for a net that ends in a
spatial layer, at its exit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .layers import (PRUNABLE_KINDS, SPATIAL_KINDS, DenseLayer, Flatten,
                     sample_first, sample_last)


@dataclass
class ActivationTrace:
    """batches[l] is the input to layer l, in that layer's layout;
    batches[-1] is the network's (N, ...) output."""

    batches: list

    def inputs_to(self, layer_index: int) -> np.ndarray:
        return self.batches[layer_index]

    @property
    def logits(self) -> np.ndarray:
        return self.batches[-1]


class Network:
    def __init__(self, layers, input_shape, classes: int, strict: bool = True):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.classes = int(classes)
        if strict:
            last = self.layers[-1]
            if not isinstance(last, DenseLayer) or last.activation != "identity":
                raise ValueError(
                    "the last layer must be a dense layer with identity "
                    "activation so the network emits raw logits"
                )
            if last.fan_out != self.classes:
                raise ValueError(
                    f"last layer emits {last.fan_out} logits but the network "
                    f"declares {self.classes} classes"
                )
        for prev, layer in zip(self.layers, self.layers[1:]):
            if isinstance(layer, Flatten):
                layer.sample_last = prev.kind in SPATIAL_KINDS

    def _as_batch(self, batch) -> np.ndarray:
        if isinstance(batch, (list, tuple)):
            if len(batch) == 0:
                raise DimensionError("empty batch")
            batch = np.stack(batch)
        x = np.asarray(batch)
        if x.shape[1:] != self.input_shape:
            raise DimensionError(
                f"batch samples have shape {x.shape[1:]}, network expects "
                f"{self.input_shape}"
            )
        return x

    def first_layer_input(self, batch) -> np.ndarray:
        """An (N, ...) batch in the first layer's layout."""
        x = self._as_batch(batch)
        return sample_last(x) if self.layers[0].kind in SPATIAL_KINDS else x

    def forward(self, batch, capture: bool = False):
        """Run the batch through every layer; optionally keep all activations.

        Returns logits, or ``(logits, ActivationTrace)`` when capturing. The
        computed values are identical either way; capture only retains them,
        and without it each layer's input is freed once the next layer has
        run.
        """
        x = self.first_layer_input(batch)
        batches = []
        for layer in self.layers:
            if capture:
                batches.append(x)
            x = layer.forward(x)
        if self.layers[-1].kind in SPATIAL_KINDS:
            x = sample_first(x)
        if capture:
            return x, ActivationTrace(batches + [x])
        return x

    def prunable_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind in PRUNABLE_KINDS]

    def layer_input_shapes(self) -> list[tuple]:
        """Per-sample input shape seen by each layer, propagated from the top."""
        shapes = []
        cur = self.input_shape
        for layer in self.layers:
            shapes.append(cur)
            cur = layer.output_shape(cur)
        return shapes

    def num_params(self) -> int:
        return int(sum(p.size for l in self.layers for p in l.params().values()))

    def num_unmasked(self) -> int:
        total = 0
        for layer in self.layers:
            masks = layer.param_masks()
            for name in layer.params():
                total += int(np.broadcast_to(masks[name],
                                             layer.params()[name].shape).sum())
        return total

    def clone(self) -> "Network":
        return Network([l.clone() for l in self.layers], self.input_shape,
                       self.classes, strict=False)

    def astype(self, dtype) -> "Network":
        return Network([l.astype(dtype) for l in self.layers], self.input_shape,
                       self.classes, strict=False)

