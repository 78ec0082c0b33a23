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
    _check_read(len(data), nbytes, section)
    return data


def _check_read(got, nbytes, section):
    if got != nbytes:
        raise FileFormatError(
            f"truncated file: expected {nbytes} bytes for {section}, got {got}"
        )


def _bytes_left(fh):
    return os.fstat(fh.fileno()).st_size - fh.tell()


def check_payload(fh, nbytes, section, path):
    """Raise unless exactly nbytes follow the current position of fh.

    Called with the payload size a header claims, before anything of that
    size is allocated, so a corrupt header cannot request a huge buffer.
    """
    remaining = _bytes_left(fh)
    if nbytes != remaining:
        raise FileFormatError(
            f"{path}: header claims {nbytes} bytes of {section}, "
            f"but {remaining} bytes follow"
        )


def write_array(fh, arr, dtype="<f8"):
    """Write arr in C order as dtype, from its own buffer when it already
    has that layout (no bytes copy)."""
    fh.write(memoryview(np.ascontiguousarray(arr, dtype=dtype)))


def read_array(fh, shape, section, dtype="<f8"):
    """Read an array of the given shape and dtype straight into a new array.

    Raises FileFormatError naming the section when fewer bytes follow than
    the array needs.  That is checked against the file size before the
    array is allocated, so a corrupt size cannot request a huge buffer.
    """
    nbytes = np.dtype(dtype).itemsize * math.prod(shape)
    _check_read(min(nbytes, _bytes_left(fh)), nbytes, section)
    out = np.empty(shape, dtype=dtype)
    _check_read(fh.readinto(out), nbytes, section)
    return out
