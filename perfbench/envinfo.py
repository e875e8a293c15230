"""Environment metadata recorded with every result."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = cfg.get("name", "unknown"), cfg.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text(encoding="utf-8").strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def collect(root: Path, seed: int) -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
