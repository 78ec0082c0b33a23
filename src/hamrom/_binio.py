"""Shared helpers for the little-endian binary container formats."""

import math
import os

import numpy as np

__all__ = ["FileFormatError", "read_exact", "check_payload", "write_array", "read_array"]


class FileFormatError(RuntimeError):
    """Raised when a binary artifact is malformed or truncated."""


def read_exact(fh, nbytes, section):
    """Read exactly nbytes or raise naming the missing section."""
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise FileFormatError(
            f"truncated file: expected {nbytes} bytes for {section}, got {len(data)}"
        )
    return data


def check_payload(fh, nbytes, section, path):
    """Raise unless exactly nbytes follow the current position of fh.

    Called with the payload size a header claims, before anything of that
    size is allocated, so a corrupt header cannot request a huge buffer.
    """
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes != remaining:
        raise FileFormatError(
            f"{path}: header claims {nbytes} bytes of {section}, "
            f"but {remaining} bytes follow"
        )


def write_array(fh, arr, dtype="<f8"):
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def read_array(fh, shape, section, dtype="<f8"):
    itemsize = np.dtype(dtype).itemsize
    data = read_exact(fh, itemsize * math.prod(shape), section)
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()
