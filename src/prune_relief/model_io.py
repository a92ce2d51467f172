"""Model checkpoint directory format.

A checkpoint is a directory holding ``model.json`` (architecture plus a tensor
manifest) and ``weights.bin`` (raw little-endian float32 parameter blobs in
manifest order, followed by the layers' boolean masks as uint8 0/1). Every
blob records its byte offset, length, and CRC32 so loads can reject torn or
tampered files. A parameter tensor holding NaN or infinity is rejected too,
even under a valid CRC: no command could give a meaningful result from it.
So is a mask byte other than 0 or 1, a layer record no layer can take (an
``out``, ``in`` or ``kernel`` size, a stride or a window below 1, a
negative padding), a size or offset that is no integer (JSON's ``1e400`` is
infinite) and a layer stack that does not chain from ``input_shape``: every
malformed checkpoint raises ``FormatError``. The layer records are each
layer's ``record()`` (``layers.from_record`` reads them back).
Round-tripping a network through save/load is bit-exact.
"""

import json
import zlib
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError
from .layers import from_record
from .network import Network

FORMAT_NAME = "prune-relief-model"
FORMAT_VERSION = 1

_FLOAT = "f32le"
_MASK = "u8"


def save_model(net: Network, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    blobs: list[tuple[str, str, np.ndarray]] = []
    for i, layer in enumerate(net.layers):
        for pname, arr in layer.params().items():
            blobs.append((f"layers.{i}.{pname}", _FLOAT,
                          np.ascontiguousarray(arr, dtype="<f4")))
    for i, layer in enumerate(net.layers):
        for mname, arr in layer.stored_masks().items():
            blobs.append((f"layers.{i}.{mname}", _MASK,
                          np.ascontiguousarray(arr, dtype=np.uint8)))
    tensors = []
    chunks = []
    offset = 0
    for name, kind, arr in blobs:
        raw = arr.tobytes()
        tensors.append({
            "name": name,
            "kind": kind,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "layers": [l.record() for l in net.layers],
        "tensors": tensors,
    }
    write_json(path / "model.json", manifest)
    (path / "weights.bin").write_bytes(b"".join(chunks))


def write_json(path, obj) -> None:
    """``obj`` as JSON at ``path``: 2-space indent, sorted keys, final
    newline, the form of every JSON file of a run directory."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_manifest(path: Path) -> dict:
    mpath = path / "model.json"
    if not mpath.is_file():
        raise FormatError(f"{mpath} does not exist")
    try:
        manifest = json.loads(mpath.read_text())
    except (OSError, ValueError) as e:
        raise FormatError(f"cannot parse {mpath}: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{mpath} is not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise FormatError(f"{mpath} has format {manifest.get('format')!r}, "
                          f"expected {FORMAT_NAME!r}")
    if manifest.get("version") != FORMAT_VERSION:
        raise FormatError(f"{mpath} has version {manifest.get('version')!r}, "
                          f"expected {FORMAT_VERSION}")
    for key in ("layers", "tensors"):
        records = manifest.get(key)
        if not isinstance(records, list) \
                or not all(isinstance(r, dict) for r in records):
            raise FormatError(f"{mpath}: {key!r} must be a list of JSON "
                              f"objects")
    return manifest


def _extract(blob: bytes, rec: dict, path: Path) -> np.ndarray:
    try:
        name = rec["name"]
        kind = rec["kind"]
        shape = tuple(int(d) for d in rec["shape"])
        offset = int(rec["offset"])
        nbytes = int(rec["nbytes"])
        crc = int(rec["crc32"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"malformed tensor record in {path}: {e}") from e
    if kind == _FLOAT:
        dtype = np.dtype("<f4")
    elif kind == _MASK:
        dtype = np.dtype(np.uint8)
    else:
        raise FormatError(f"tensor {name}: unknown kind {kind!r}")
    if offset < 0 or offset + nbytes > len(blob):
        raise FormatError(f"tensor {name}: range [{offset}, {offset + nbytes}) "
                          f"outside weights.bin of {len(blob)} bytes")
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if nbytes != expected:
        raise FormatError(f"tensor {name}: {nbytes} bytes recorded but shape "
                          f"{shape} needs {expected}")
    raw = blob[offset:offset + nbytes]
    if zlib.crc32(raw) != crc:
        raise FormatError(f"tensor {name}: CRC32 mismatch, file is corrupt")
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if kind == _FLOAT and not np.isfinite(arr).all():
        raise FormatError(f"tensor {name}: holds non-finite values")
    # a read-only view of the file's bytes: the layer stores its own copy
    return arr


def load_model(path) -> Network:
    path = Path(path)
    manifest = _read_manifest(path)
    bpath = path / "weights.bin"
    if not bpath.is_file():
        raise FormatError(f"{bpath} does not exist")
    blob = bpath.read_bytes()
    try:
        total = sum(int(t.get("nbytes", 0)) for t in manifest["tensors"])
    except (TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"malformed tensor record in {path}: {e}") from e
    if total != len(blob):
        raise FormatError(f"{bpath} holds {len(blob)} bytes but the manifest "
                          f"declares {total}")
    tensors = {}
    for rec in manifest["tensors"]:
        arr = _extract(blob, rec, path)
        tensors[str(rec["name"])] = arr

    def take(name, shape):
        if name not in tensors:
            raise FormatError(f"manifest is missing tensor {name}")
        arr = tensors.pop(name)
        if arr.shape != shape:
            raise FormatError(f"tensor {name} has shape {arr.shape}, layer "
                              f"declaration implies {shape}")
        return arr

    layers = []
    for i, rec in enumerate(manifest["layers"]):
        try:
            layers.append(from_record(
                rec, lambda name, shape: take(f"layers.{i}.{name}", shape)))
        except (KeyError, TypeError) as e:
            raise FormatError(f"malformed record of layer {i} in {path}: "
                              f"{e}") from e
        except (ValueError, OverflowError, DimensionError) as e:
            # a masked nonzero or an unknown kind is a ValueError, a size,
            # stride or window below 1 a DimensionError, JSON's 1e400 an
            # OverflowError
            raise FormatError(f"invalid checkpoint {path}: layer {i}: "
                              f"{e}") from e
    if tensors:
        raise FormatError(f"manifest declares tensors not owned by any layer: "
                          f"{sorted(tensors)}")
    try:
        net = Network(layers, manifest["input_shape"], manifest["classes"])
        # the layers must chain from input_shape
        out_shape = layers[-1].output_shape(net.layer_input_shapes()[-1])
    except (KeyError, TypeError, ValueError, OverflowError,
            DimensionError) as e:
        raise FormatError(f"invalid checkpoint {path}: {e}") from e
    if out_shape != (net.classes,):
        raise FormatError(f"invalid checkpoint {path}: the manifest declares "
                          f"{net.classes} classes, but the last layer emits "
                          f"outputs of shape {out_shape}")
    return net
