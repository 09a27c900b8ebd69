"""Unit tests for frames."""

import pytest

from repro.phy.frame import (
    BROADCAST,
    CONTROL_PACKET_BITS,
    FrameType,
    control_frame,
    data_frame,
)


def test_control_frame_has_table2_size():
    frame = control_frame(FrameType.RTS, 1, 2, timestamp=0.0)
    assert frame.size_bits == CONTROL_PACKET_BITS == 64


def test_control_frame_rejects_data_types():
    with pytest.raises(ValueError):
        control_frame(FrameType.DATA, 1, 2, timestamp=0.0)


def test_data_frame_flags_extra():
    normal = data_frame(1, 2, 0.0)
    extra = data_frame(1, 2, 0.0, extra=True)
    assert normal.ftype is FrameType.DATA
    assert extra.ftype is FrameType.EXDATA
    assert extra.ftype.is_extra and not extra.ftype.is_control


def test_data_frame_size_positive():
    with pytest.raises(ValueError):
        data_frame(1, 2, 0.0, size_bits=0)


def test_duration_at_table2_bitrate():
    frame = control_frame(FrameType.CTS, 1, 2, timestamp=0.0)
    # 64 bits at 12 kbps = 5.333 ms (the paper's omega).
    assert frame.duration_s(12_000.0) == pytest.approx(64 / 12_000)
    with pytest.raises(ValueError):
        frame.duration_s(0.0)


def test_frame_uids_unique():
    frames = [control_frame(FrameType.RTS, 1, 2, timestamp=0.0) for _ in range(10)]
    assert len({f.uid for f in frames}) == 10


def test_describe_broadcast():
    frame = control_frame(FrameType.HELLO, 3, BROADCAST, timestamp=0.0)
    assert frame.describe() == "HELLO 3->bcast"


def test_frame_type_classification():
    assert FrameType.RTS.is_control
    assert not FrameType.EXDATA.is_control and FrameType.EXDATA.is_extra
    assert not FrameType.DATA.is_control and not FrameType.DATA.is_extra
    assert FrameType.EXR.is_control and FrameType.EXR.is_extra
    assert FrameType.NEIGH.is_control
