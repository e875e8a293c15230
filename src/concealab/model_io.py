"""Binary model files for detectors and attack generators.

Layout (all integers little-endian):
    bytes 0..3    magic "CLAB"
    bytes 4..7    uint32 format version (currently 3)
    bytes 8..11   uint32 header length H
    bytes 12..    H bytes of UTF-8 JSON header, as HEADERS lists for the role
    then          the float64 little-endian payload: the parameters in
                  `nn.param_layout(spec)` order, each in C order, then the
                  normalizer's vmin and vmax

The header's spec fixes the payload's layout, so the payload holds no names
or shapes, and a payload of any other size is refused. Round trips are bit
exact.
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
VERSION = 3
# The header of each role's file (see concealab.checks); its spec fixes the payload.
_COMMON = {"spec": NetworkSpec, "names": ([str], None)}
HEADERS = {"detector": {"role": "detector", **_COMMON, "theta": float, "window": Range(int, 1)},
           "generator": {"role": "generator", **_COMMON, "read": [Range(int, 0)]}}


def _write(path, model: Detector | Generator, header: dict) -> None:
    """header, with model's spec and names, then model's payload."""
    header = dict(header, spec=model.spec.to_dict(), names=model.names)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob)
        for array in [*(model.params[name] for name, _ in param_layout(model.spec)),
                      model.normalizer.vmin, model.normalizer.vmax]:
            fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _load(path, role: str) -> tuple[dict, NetworkSpec, dict, Normalizer, list[str]]:
    """Header (checked against HEADERS[role]), spec, parameters, normalizer
    and channel names of a model file; the parameters and normalizer are
    views into one native copy of the payload, as training returns them."""
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
    try:
        spec = NetworkSpec.from_dict(header["spec"])
    except SpecError as exc:
        raise DataError(f"{path}: bad network spec: {exc}") from None
    layout, n = param_layout(spec), spec.channels
    size = sum(math.prod(shape) for _, shape in layout)
    # checked before anything is allocated, however large the spec's network
    if len(raw) - 12 - hlen != 8 * (size + 2 * n):
        raise DataError(f"{path}: payload holds {len(raw) - 12 - hlen} bytes, the {spec.kind} "
                        f"network and its normalizer need {8 * (size + 2 * n)}")
    buf = np.frombuffer(raw, dtype="<f8", offset=12 + hlen).astype(np.float64)
    nz = Normalizer(buf[size:size + n], buf[size + n:])
    return header, spec, param_views(buf[:size], layout), nz, header["names"] or []


def save_detector(det: Detector, path) -> None:
    _write(path, det, {"role": "detector", "theta": det.theta, "window": det.window})


def load_detector(path) -> Detector:
    header, spec, params, nz, names = _load(path, "detector")
    return Detector(spec, params, nz, float(header["theta"]), header["window"], names)


def save_generator(gen: Generator, path) -> None:
    _write(path, gen, {"role": "generator", "read": list(gen.read)})


def load_generator(path) -> Generator:
    header, spec, params, nz, names = _load(path, "generator")
    read = tuple(header["read"])
    if len(read) != spec.channels:
        raise DataError(f"{path}: generator reads {len(read)} channels, its network "
                        f"has {spec.channels}")
    return Generator(spec, params, nz, read, names)
