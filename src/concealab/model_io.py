"""Binary model files for detectors and attack generators.

Layout (all integers little-endian):
    bytes 0..3    magic "CLAB"
    bytes 4..7    uint32 format version (currently 1)
    bytes 8..11   uint32 header length H
    bytes 12..    H bytes of UTF-8 JSON header
    then          raw float64 little-endian C-order array data, concatenated

The JSON header carries the role ("detector" / "generator"), the network
spec, channel names, role-specific scalars (theta, window, read indices),
and an ordered array manifest of {name, shape} covering the parameter
arrays in layer order plus the normalization stats (__norm_vmin,
__norm_vmax). Round trips are lossless: float64 payloads are written bit
for bit.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from .attacks import Generator
from .dataset import Normalizer
from .detector import Detector
from .errors import DataError, SpecError
from .fileio import atomic_open
from .nn import NetworkSpec, param_layout, param_views

MAGIC = b"CLAB"
VERSION = 1


def _write(path, header: dict, arrays: dict) -> None:
    manifest = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    header = dict(header, arrays=manifest)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _manifest_entry(path, item, seen: dict) -> tuple[str, tuple[int, ...]]:
    """Name and shape of one array manifest entry, checked."""
    name = item.get("name") if isinstance(item, dict) else None
    shape = item.get("shape") if isinstance(item, dict) else None
    if not isinstance(name, str) or name in seen:
        raise DataError(f"{path}: array manifest entry {item!r} lacks a unique name")
    if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
        raise DataError(f"{path}: array {name!r} has a bad shape {shape!r}")
    return name, tuple(shape)


def _read(path) -> tuple[dict, dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    if 12 + hlen > len(raw):
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise DataError(f"{path}: header is not an object with an array manifest")
    pos = 12 + hlen
    arrays: dict = {}
    for item in header["arrays"]:
        name, shape = _manifest_entry(path, item, arrays)
        end = pos + 8 * math.prod(shape)
        if end > len(raw):
            raise DataError(f"{path}: truncated array data for {name!r}")
        arrays[name] = np.frombuffer(raw[pos:end], dtype="<f8").reshape(shape)
        pos = end
    if pos != len(raw):
        raise DataError(f"{path}: {len(raw) - pos} trailing bytes")
    return header, arrays


def _pack_params(params: dict, normalizer: Normalizer) -> dict:
    arrays = dict(params)  # insertion order is layer order
    arrays["__norm_vmin"] = normalizer.vmin
    arrays["__norm_vmax"] = normalizer.vmax
    return arrays


def _load(path, role: str) -> tuple[dict, NetworkSpec, dict, Normalizer, list[str]]:
    """Header, spec, parameters, normalizer and channel names of a model
    file of the given role. The arrays must be exactly the spec's parameter
    layout plus the per-channel normalization stats; the parameters come
    back as views into one buffer, as training returns them."""
    header, arrays = _read(path)
    if header.get("role") != role:
        raise DataError(f"{path}: expected a {role} model, found {header.get('role')!r}")
    names = header.get("names", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DataError(f"{path}: channel names must be a list of strings")
    try:
        spec = NetworkSpec.from_dict(header["spec"])
        layout = param_layout(spec)
        if not all(type(d) is int for _, shape in layout for d in shape):
            raise TypeError("layer sizes must be integers")
    except (SpecError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad network spec: {exc!r}") from None
    stats = [("__norm_vmin", (spec.channels,)), ("__norm_vmax", (spec.channels,))]
    for name, shape in layout + stats:
        if name not in arrays:
            raise DataError(f"{path}: missing array {name!r}")
        if arrays[name].shape != shape:
            raise DataError(f"{path}: array {name!r} has shape {arrays[name].shape}, "
                            f"the {spec.kind} network needs {shape}")
    extra = sorted(set(arrays) - {name for name, _ in layout + stats})
    if extra:
        raise DataError(f"{path}: unexpected arrays {extra}")
    # checked first, so the buffer is no larger than the file's payload
    buf = np.concatenate([arrays[name] for name, _ in layout], axis=None)
    params = param_views(buf, layout)
    nz = Normalizer.from_dict({"vmin": arrays["__norm_vmin"], "vmax": arrays["__norm_vmax"]})
    return header, spec, params, nz, names


def save_detector(det: Detector, path) -> None:
    header = {"role": "detector", "spec": det.spec.to_dict(), "theta": det.theta,
              "window": det.window, "names": det.names}
    _write(path, header, _pack_params(det.params, det.normalizer))


def load_detector(path) -> Detector:
    header, spec, params, nz, names = _load(path, "detector")
    try:
        theta, window = float(header["theta"]), int(header["window"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: bad detector header: {exc!r}") from None
    return Detector(spec, params, nz, theta, window, names)


def save_generator(gen: Generator, path) -> None:
    header = {"role": "generator", "spec": gen.spec.to_dict(),
              "read": list(gen.read), "names": gen.names}
    _write(path, header, _pack_params(gen.params, gen.normalizer))


def load_generator(path) -> Generator:
    header, spec, params, nz, names = _load(path, "generator")
    try:
        read = tuple(int(i) for i in header["read"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: bad generator header: {exc!r}") from None
    if len(read) != spec.channels:
        raise DataError(f"{path}: generator reads {len(read)} channels, its network "
                        f"has {spec.channels}")
    return Generator(spec, params, nz, read, names)
