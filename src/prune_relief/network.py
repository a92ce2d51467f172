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

Training and evaluation run on the network's live subnetwork
(:class:`Subnetwork`): a compact copy without the units and conv channels
that masks have cut off, which computes the same function.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .layers import (PRUNABLE_KINDS, SPATIAL_KINDS, Flatten, sample_first,
                     sample_last)


@dataclass
class Liveness:
    """The targets of one prunable layer that the live subnetwork drops, one
    bool each, and its block: the next prunable layer's inputs per target."""

    dead_end: np.ndarray
    inputless: np.ndarray
    block: int

    @property
    def live(self) -> np.ndarray:
        return ~(self.dead_end | self.inputless)


class Network:
    def __init__(self, layers, input_shape, classes: int):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.classes = int(classes)
        for prev, layer in zip(self.layers, self.layers[1:]):
            if isinstance(layer, Flatten):
                layer.sample_last = prev.kind in SPATIAL_KINDS

    def first_layer_input(self, batch) -> np.ndarray:
        """An (N, ...) batch in the first layer's layout."""
        x = np.asarray(batch)
        if x.shape[1:] != self.input_shape:
            raise DimensionError(
                f"batch samples have shape {x.shape[1:]}, network expects "
                f"{self.input_shape}"
            )
        return sample_last(x) if self.layers[0].kind in SPATIAL_KINDS else x

    def forward(self, batch, keep=None):
        """Run the batch through every layer.

        Returns the (N, ...) logits. With ``keep`` naming layer indices,
        returns ``(logits, inputs)`` where ``inputs`` maps each named index
        to that layer's input, in the layer's layout. The computed values
        are the same either way; every input not named is freed once the
        next layer has run. A conv layer and the max pool after it run as
        one step, the pool on each band of the conv's output as it is made
        (``ConvLayer.forward``), unless ``keep`` names the pool: only then
        is the conv's whole output held.
        """
        wanted = set() if keep is None else set(keep)
        bad = sorted(wanted - set(range(len(self.layers))))
        if bad:
            raise IndexError(f"no layers {bad} in a network of "
                             f"{len(self.layers)} layers")
        x, inputs = self._run(self.first_layer_input(batch), len(self.layers),
                              wanted)
        if self.layers[-1].kind in SPATIAL_KINDS:
            x = sample_first(x)
        return x if keep is None else (x, inputs)

    def layer_input(self, batch, index: int) -> np.ndarray:
        """Layer ``index``'s input for the batch, in the layer's layout,
        from the layers before it alone."""
        x, _ = self._run(self.first_layer_input(batch), index, set())
        return x

    def _run(self, x, stop: int, wanted: set):
        """Run layers [0, stop) on ``x`` in the first layer's layout; return
        the last output and the inputs of the ``wanted`` layers."""
        inputs = {}
        steps = enumerate(self.layers[:stop])
        for i, layer in steps:
            if i in wanted:
                inputs[i] = x
            if (i + 1 < stop and i + 1 not in wanted
                    and self.pool_after(i) is not None):
                # the pool's step runs inside the conv's band loop
                x = layer.forward(x, pool=next(steps)[1])
            else:
                x = layer.forward(x)
        return x, inputs

    def pool_after(self, index: int):
        """The max pool right after layer ``index`` when that layer is a
        conv, else None: ``forward`` and training run such a pair as one
        step."""
        if (self.layers[index].kind == "conv" and index + 1 < len(self.layers)
                and self.layers[index + 1].kind == "maxpool"):
            return self.layers[index + 1]
        return None

    def prunable_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind in PRUNABLE_KINDS]

    def liveness(self) -> dict[int, Liveness]:
        """Dead-end and input-less targets and block of each prunable layer.

        A target feeds a block of the next prunable layer's inputs, through
        any pools and a Flatten, which keep channels apart: a conv channel's
        pooled H·W features behind a Flatten, one input otherwise. A target
        is dead-end when no unmasked weight of the next prunable layer reads
        it. It is input-less when its incoming weights and its bias are all
        masked and its activation maps 0 to 0, so it outputs exactly 0;
        with any other activation (sigmoid) it outputs a constant and
        stays. The last layer's targets are the logits: they stay (block 1).
        """
        prunable = self.prunable_indices()
        out = {}
        for a, b in zip(prunable, prunable[1:] + [None]):
            layer = self.layers[a]
            none = np.zeros(layer.fan_out, dtype=bool)
            if b is None:
                out[a] = Liveness(dead_end=none, inputless=none, block=1)
                continue
            wm, bm = layer.stored_masks().values()
            if layer.act.f(np.zeros(1, dtype=layer.bias.dtype))[0] == 0:
                inputless = ~(wm.any(axis=1) | bm)
            else:
                inputless = none
            block = self.layers[b].fan_in // layer.fan_out
            reads = next(iter(self.layers[b].stored_masks().values()))
            reads = reads.reshape(reads.shape[0], layer.fan_out, block)
            out[a] = Liveness(dead_end=~reads.any(axis=(0, 2)),
                              inputless=inputless, block=block)
        return out

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
        # perfbench/checks.py calls this to check every benchmark checkpoint
        return sum(int(m.sum()) for layer in self.layers
                   for m in layer.param_masks().values())

    def clone(self) -> "Network":
        return Network([l.clone() for l in self.layers], self.input_shape,
                       self.classes)


class Subnetwork:
    """The live part of a network: a compact copy that computes the same
    function, and the way back into the network.

    Each prunable layer of the copy keeps the rows of its live targets (at
    least one, so no tensor is empty) and the columns that the previous
    prunable layer's kept targets feed: those inputs, those conv input
    channels, or their feature blocks behind a Flatten. The first prunable
    layer keeps all its inputs and the last all its targets. A dropped
    target outputs exactly 0 (input-less) or nothing reads it (dead-end),
    so the copy gives the network's logits, and the network's gradients for
    the entries it holds, up to the order of the sums. A layer that drops
    nothing is shared with the network, not copied, so a network with
    nothing to drop is trained in place, as it is.
    """

    def __init__(self, net: Network):
        self.full = net
        # prunable layer index -> (kept rows, kept columns) as bool masks
        self.keep = {}
        liveness = net.liveness()
        layers = []
        prev = None  # (kept targets, block) of the previous prunable layer
        for i, layer in enumerate(net.layers):
            if i not in liveness:
                layers.append(layer)
                continue
            keep_rows = liveness[i].live
            if not keep_rows.any():
                keep_rows[0] = True
            keep_cols = np.ones(layer.fan_in, dtype=bool) if prev is None \
                else np.repeat(*prev)
            prev = keep_rows, liveness[i].block
            self.keep[i] = keep_rows, keep_cols
            if keep_rows.all() and keep_cols.all():
                layers.append(layer)  # drops nothing: shared, not copied
            else:
                layers.append(layer.take(np.flatnonzero(keep_rows),
                                         np.flatnonzero(keep_cols)))
        self.net = Network(layers, net.input_shape, net.classes)

    def _copied(self):
        """(network layer, its copy, the index of the copy's entries in each
        parameter) of every layer the copy does not share."""
        for i, (keep_rows, keep_cols) in self.keep.items():
            layer, part = self.full.layers[i], self.net.layers[i]
            if part is not layer:
                yield layer, part, (np.ix_(keep_rows, keep_cols), keep_rows)

    @functools.cached_property
    def _left_out(self) -> list:
        """(network tensor, flat indices) of the unmasked entries the copy
        leaves out: the incoming weights and biases of dead-end targets and
        the outgoing weights of input-less ones."""
        out = []
        for layer, _, kept in self._copied():
            for p, mask, index in zip(layer.params().values(),
                                      layer.param_masks().values(), kept):
                left_out = mask.copy()
                left_out[index] = False
                out.append((p, np.flatnonzero(left_out)))
        return out

    @functools.cached_property
    def outside(self) -> np.ndarray:
        """The entries the copy leaves out, packed into one vector on first
        use. Their data gradient is exactly 0; :meth:`scatter` writes them
        back."""
        parts = [p.reshape(-1)[idx] for p, idx in self._left_out]
        return np.concatenate(parts) if parts else np.zeros(0)

    def scatter(self) -> None:
        """Write the copied layers' parameters, and ``outside`` if it was
        packed, into the network."""
        if "outside" in vars(self):
            start = 0
            for p, idx in self._left_out:
                p.reshape(-1)[idx] = self.outside[start:start + idx.size]
                start += idx.size
        for layer, part, kept in self._copied():
            for p, q, index in zip(layer.params().values(),
                                   part.params().values(), kept):
                p[index] = q
