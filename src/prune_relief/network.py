"""Feed-forward network container and forward evaluation with capture.

A network is an ordered list of layers plus the per-sample input shape and
class count. ``forward`` can capture the full activation trace: batch X(0) as
fed in, then each layer's post-activation output X(1)..X(L). The trace is what
importance scoring and deviation measurement consume, so both always see
activations from the same pass-start state of the network.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .layers import PRUNABLE_KINDS, DenseLayer


@dataclass
class ActivationTrace:
    """batches[l] is the input batch to layer l; batches[-1] is the logits."""

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

    def forward(self, batch, capture: bool = False):
        """Run the batch through every layer; optionally keep all activations.

        Returns logits, or ``(logits, ActivationTrace)`` when capturing. The
        computed values are identical either way; capture only retains them.
        """
        x = self._as_batch(batch)
        batches = [x]
        for layer in self.layers:
            x = layer.forward(x)
            batches.append(x)
        if capture:
            return x, ActivationTrace(batches)
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

