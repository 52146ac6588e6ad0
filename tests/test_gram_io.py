import tracemalloc

import numpy as np
import pytest

from rntk import Arch, InputOrder, Variant
from rntk.gram_io import (
    KIND_CK,
    KIND_NTK,
    GramFormatError,
    read_gram,
    variant_code,
    variant_from_code,
    write_gram,
    write_gram_csv,
)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 3))
    path = tmp_path / "k.gram"
    write_gram(path, mat, KIND_NTK, Variant(Arch.BI_RNN))
    back, kind, variant = read_gram(path)
    assert np.array_equal(back, mat)
    assert kind == KIND_NTK
    assert variant == Variant(Arch.BI_RNN)


def test_read_holds_the_payload_once(tmp_path):
    mat = np.random.default_rng(2).standard_normal((200, 300))
    path = tmp_path / "k.gram"
    write_gram(path, mat, KIND_CK, Variant())
    tracemalloc.start()
    try:
        back, _, _ = read_gram(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, mat)
    # the matrix itself plus a little: no second copy of the file in bytes
    assert peak <= mat.nbytes + 64 * 1024


def test_header_size_and_layout(tmp_path):
    path = tmp_path / "k.gram"
    write_gram(path, np.zeros((2, 2)), KIND_CK, Variant())
    raw = path.read_bytes()
    assert raw[:8] == b"RNTKGRAM"
    assert len(raw) == 8 + 16 + 4 * 8


def test_variant_codes_round_trip():
    variants = [Variant(arch) for arch in Arch]
    variants += [Variant(Arch.RNN, InputOrder.FLIPPED), Variant(Arch.RNN_AVG, InputOrder.FLIPPED)]
    codes = [variant_code(v) for v in variants]
    assert len(set(codes)) == len(codes)
    for v, code in zip(variants, codes):
        assert variant_from_code(code) == v
    # a bidirectional kernel reads both orders, so a flip of one is the same kernel
    assert Variant(Arch.BI_RNN, InputOrder.FLIPPED) == Variant(Arch.BI_RNN)
    assert variant_from_code(0x11) == Variant(Arch.BI_RNN)


def test_corruption_detected(tmp_path):
    path = tmp_path / "k.gram"
    write_gram(path, np.ones((3, 4)), KIND_CK, Variant())
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.gram"
    bad_magic.write_bytes(b"NOTAGRAM" + bytes(raw[8:]))
    with pytest.raises(GramFormatError):
        read_gram(bad_magic)

    bad_version = tmp_path / "bad_version.gram"
    tampered = bytearray(raw)
    tampered[8] = 99
    bad_version.write_bytes(bytes(tampered))
    with pytest.raises(GramFormatError):
        read_gram(bad_version)

    truncated = tmp_path / "short.gram"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(GramFormatError):
        read_gram(truncated)

    empty = tmp_path / "empty.gram"
    empty.write_bytes(b"")
    with pytest.raises(GramFormatError):
        read_gram(empty)


def test_header_rejects_unknown_bits(tmp_path):
    path = tmp_path / "k.gram"
    write_gram(path, np.ones((2, 2)), KIND_CK, Variant(Arch.RNN_AVG, InputOrder.FLIPPED))
    raw = path.read_bytes()
    assert raw[21] == 0x12 and raw[22:24] == b"\x00\x00"
    # byte 20 is the kind, byte 21 the variant, bytes 22-23 the reserved u16
    for offset, value in ((20, 2), (21, 0x20), (21, 0x32), (21, 0x04), (22, 7), (23, 1)):
        tampered = bytearray(raw)
        tampered[offset] = value
        path.write_bytes(bytes(tampered))
        with pytest.raises(GramFormatError):
            read_gram(path)
    with pytest.raises(GramFormatError):
        variant_from_code(0x20)


def test_invalid_inputs(tmp_path):
    with pytest.raises(GramFormatError):
        write_gram(tmp_path / "x.gram", np.zeros(3), KIND_CK, Variant())
    with pytest.raises(GramFormatError):
        write_gram(tmp_path / "x.gram", np.zeros((2, 2)), 7, Variant())
    with pytest.raises(GramFormatError):
        write_gram_csv(tmp_path / "x.csv", np.zeros(3))


def test_csv_writer(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((4, 4))
    path = tmp_path / "k.csv"
    write_gram_csv(path, mat)
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_array_equal(back, mat)
