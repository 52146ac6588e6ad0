"""Binary and CSV serialization of kernel Gram matrices.

Binary layout: 8-byte magic "RNTKGRAM", then a little-endian header
(u32 version=1, u32 N rows, u32 M cols, u8 kind, u8 variant, u16 reserved=0),
then N*M little-endian float64 values in row-major order. The variant byte
is the architecture code (0-3) with bit 0x10 set for the flipped order.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .kernels import Arch, InputOrder, Variant, _as_int

MAGIC = b"RNTKGRAM"
VERSION = 1
_HEADER = struct.Struct("<IIIBBH")

KIND_CK = 0
KIND_NTK = 1

_ARCH_CODE = {Arch.RNN: 0, Arch.BI_RNN: 1, Arch.RNN_AVG: 2, Arch.BI_RNN_AVG: 3}
_CODE_ARCH = {v: k for k, v in _ARCH_CODE.items()}
_FLIP_BIT = 0x10


class GramFormatError(ValueError):
    """File is not a valid serialized Gram matrix."""


def variant_code(variant: Variant) -> int:
    code = _ARCH_CODE[variant.arch]
    if variant.input_order is InputOrder.FLIPPED:
        code |= _FLIP_BIT
    return code


def variant_from_code(code: int) -> Variant:
    if code & ~(0x03 | _FLIP_BIT):
        raise GramFormatError(f"unknown variant code {code:#04x}")
    order = InputOrder.FLIPPED if code & _FLIP_BIT else InputOrder.DEFAULT
    return Variant(_CODE_ARCH[code & 0x03], order)


def write_gram(path, matrix: np.ndarray, kind: int, variant: Variant) -> None:
    """Write one matrix to the binary Gram format."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise GramFormatError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    # True == 1 and 1.0 == 1, so the test alone would pass a flag or a float
    if _as_int(kind) not in (KIND_CK, KIND_NTK):
        raise GramFormatError(f"kind must be {KIND_CK} (CK) or {KIND_NTK} (NTK)")
    n, m = mat.shape
    # packed before the file is opened, so a refusal leaves no file behind
    header = MAGIC + _HEADER.pack(VERSION, n, m, kind, variant_code(variant), 0)
    with open(path, "wb") as fh:
        fh.write(header)
        # written from the array's own buffer, without a bytes copy of it
        fh.write(np.ascontiguousarray(mat).astype("<f8", copy=False).data)


def read_gram(path) -> tuple[np.ndarray, int, Variant]:
    """Read a binary Gram file; returns (matrix, kind, variant).

    The header and the file size are checked first, then the payload is
    read once, straight into the returned matrix.
    """
    start = len(MAGIC) + _HEADER.size
    with open(path, "rb") as fh:
        head = fh.read(start)
        if len(head) < start:
            raise GramFormatError(f"{path}: truncated header")
        if head[: len(MAGIC)] != MAGIC:
            raise GramFormatError(f"{path}: bad magic bytes")
        version, n, m, kind, vcode, reserved = _HEADER.unpack_from(head, len(MAGIC))
        if version != VERSION:
            raise GramFormatError(f"{path}: unsupported version {version}")
        if kind not in (KIND_CK, KIND_NTK):
            raise GramFormatError(f"{path}: unknown kind {kind}")
        if reserved:
            raise GramFormatError(f"{path}: reserved header field is {reserved}, expected 0")
        variant = variant_from_code(vcode)
        expected = n * m * 8
        size = os.fstat(fh.fileno()).st_size
        if size != start + expected:
            raise GramFormatError(
                f"{path}: payload is {size - start} bytes, expected {expected}")
        mat = np.fromfile(fh, dtype="<f8", count=n * m).reshape(n, m)
    return mat, kind, variant


def write_gram_csv(path, matrix: np.ndarray) -> None:
    """Plain CSV writer for small matrices (one row per line, full precision)."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise GramFormatError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    np.savetxt(path, mat, delimiter=",", fmt="%.17g")
