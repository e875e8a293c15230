"""Binary model files for detectors and attack generators.

Layout (all integers little-endian):
    bytes 0..3    magic "CLAB"
    bytes 4..7    uint32 format version (currently 2)
    bytes 8..11   uint32 header length H
    bytes 12..    H bytes of UTF-8 JSON header
    then          raw float64 little-endian C-order array data, concatenated

The JSON header holds what HEADERS lists for the file's role; its array
manifest of {name, shape} covers the parameter arrays in layer order plus
the normalization stats (__norm_vmin, __norm_vmax). Round trips are
lossless: float64 payloads are written bit for bit. A conv bank cW<i> holds
only the kernel taps that read data at its layer's input length
(`nn.param_layout`).
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from .attacks import Generator
from .checks import Range, check
from .dataset import Normalizer
from .detector import Detector
from .errors import DataError, SpecError
from .fileio import atomic_open
from .nn import NetworkSpec, param_layout, param_views

MAGIC = b"CLAB"
VERSION = 2
# The header of each role's file (see concealab.checks): the role first, then
# the array manifest, by which the payload is read.
_COMMON = {"arrays": [{"name": str, "shape": [Range(int, 0)]}], "spec": NetworkSpec,
           "names": ([str], None)}
HEADERS = {"detector": {"role": "detector", **_COMMON, "theta": float, "window": Range(int, 1)},
           "generator": {"role": "generator", **_COMMON, "read": [Range(int, 0)]}}


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


def _read(path, role: str) -> tuple[dict, dict]:
    """The header, checked against HEADERS[role], and the arrays of a model file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != VERSION:
        raise DataError(f"{path}: model format version {version} is not supported, "
                        f"this build reads version {VERSION}")
    if 12 + hlen > len(raw):
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: corrupt header: {exc}") from exc
    check(f"{path}: header", HEADERS[role], header, DataError)
    pos = 12 + hlen
    arrays: dict = {}
    for item in header["arrays"]:
        name, shape = item["name"], tuple(item["shape"])
        if name in arrays:
            raise DataError(f"{path}: header.arrays names {name!r} twice")
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
    header, arrays = _read(path, role)
    try:
        spec = NetworkSpec.from_dict(header["spec"])
    except SpecError as exc:
        raise DataError(f"{path}: bad network spec: {exc}") from None
    layout = param_layout(spec)
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
    nz = Normalizer(np.array(arrays["__norm_vmin"], dtype=np.float64),
                    np.array(arrays["__norm_vmax"], dtype=np.float64))
    return header, spec, params, nz, header["names"] or []


def save_detector(det: Detector, path) -> None:
    header = {"role": "detector", "spec": det.spec.to_dict(), "theta": det.theta,
              "window": det.window, "names": det.names}
    _write(path, header, _pack_params(det.params, det.normalizer))


def load_detector(path) -> Detector:
    header, spec, params, nz, names = _load(path, "detector")
    return Detector(spec, params, nz, float(header["theta"]), header["window"], names)


def save_generator(gen: Generator, path) -> None:
    header = {"role": "generator", "spec": gen.spec.to_dict(),
              "read": list(gen.read), "names": gen.names}
    _write(path, header, _pack_params(gen.params, gen.normalizer))


def load_generator(path) -> Generator:
    header, spec, params, nz, names = _load(path, "generator")
    read = tuple(header["read"])
    if len(read) != spec.channels:
        raise DataError(f"{path}: generator reads {len(read)} channels, its network "
                        f"has {spec.channels}")
    return Generator(spec, params, nz, read, names)
