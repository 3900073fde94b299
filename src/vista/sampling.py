"""Observed-frame sampling arithmetic for the temporal branch.

Given a query timestamp, `plan_frames` returns the timestamps of the
observed frames the temporal pathway consumes: the last frame is
anchored exactly at the query time, earlier frames step backward at the
sampling interval, and times before stream start clamp to 0 (frame
duplication). No video is touched; this is pure timestamp arithmetic.
"""

from __future__ import annotations

from .types import check_settings

DEFAULT_FRAME_COUNT = 8
DEFAULT_SAMPLE_RATE = 2.0


def plan_frames(
    query_time: float,
    frame_count: int = DEFAULT_FRAME_COUNT,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> tuple[float, ...]:
    """Frame timestamps ending at `query_time`, spaced 1/sample_rate apart.

    times[k] = max(0, query_time - (frame_count-1-k)/sample_rate).
    """
    check_settings([("query_time", query_time, "float", "finite and >= 0"),
                    ("frame_count", frame_count, "int", ">= 1"),
                    ("sample_rate", sample_rate, "float", "finite and > 0")])
    return tuple(
        max(0.0, query_time - (frame_count - 1 - k) / sample_rate)
        for k in range(frame_count)
    )
