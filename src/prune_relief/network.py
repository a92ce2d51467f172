"""Feed-forward network container and forward evaluation.

A network is an ordered list of layers plus the per-sample input shape and
class count. ``forward`` can keep the inputs of the layers a caller names:
importance scoring and deviation measurement read them, so both always see
activations from the same pass-start state of the network. Every other
layer's input is freed once the next layer has run.

Batches go in and come out as (N, ...) arrays. Inside, conv and pool layers
carry sample-last (C, H, W, N) maps (see ``layers``): the batch is converted
once on entry when the first layer is spatial, and once on the way out, at
the ``Flatten`` after the last spatial layer or, for a net that ends in a
spatial layer, at its exit.
"""

import numpy as np

from .errors import DimensionError
from .layers import (PRUNABLE_KINDS, SPATIAL_KINDS, DenseLayer, Flatten,
                     sample_first, sample_last)


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

    def forward(self, batch, keep=None):
        """Run the batch through every layer.

        Returns the (N, ...) logits. With ``keep`` naming layer indices,
        returns ``(logits, inputs)`` where ``inputs`` maps each named index
        to that layer's input, in the layer's layout. The computed values
        are the same either way; every input not named is freed once the
        next layer has run.
        """
        wanted = set() if keep is None else set(keep)
        bad = sorted(wanted - set(range(len(self.layers))))
        if bad:
            raise IndexError(f"no layers {bad} in a network of "
                             f"{len(self.layers)} layers")
        x = self.first_layer_input(batch)
        inputs = {}
        for i, layer in enumerate(self.layers):
            if i in wanted:
                inputs[i] = x
            x = layer.forward(x)
        if self.layers[-1].kind in SPATIAL_KINDS:
            x = sample_first(x)
        return x if keep is None else (x, inputs)

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

