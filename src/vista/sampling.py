"""Observed-frame sampling arithmetic for the temporal branch.

Given a query timestamp, computes the timestamps of the observed frames
the temporal pathway consumes: the last frame is anchored exactly at the
query time, earlier frames step backward at the sampling interval, and
times before stream start clamp to 0 (frame duplication). No video is
touched; this is pure timestamp arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .types import number_problems

DEFAULT_FRAME_COUNT = 8
DEFAULT_SAMPLE_RATE = 2.0


@dataclass(frozen=True)
class SamplingPlan:
    query_time: float
    frame_times: tuple[float, ...]
    sample_rate: float = DEFAULT_SAMPLE_RATE
    frame_count: int = DEFAULT_FRAME_COUNT


def plan_frames(
    query_time: float,
    frame_count: int = DEFAULT_FRAME_COUNT,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> SamplingPlan:
    """Frame timestamps ending at `query_time`, spaced 1/sample_rate apart.

    frame_times[k] = max(0, query_time - (frame_count-1-k)/sample_rate).
    """
    problems = (number_problems("query_time", query_time)
                + number_problems("frame_count", frame_count, integer=True)
                + number_problems("sample_rate", sample_rate))
    if problems:
        raise ValidationError(problems)
    if not (math.isfinite(query_time) and query_time >= 0.0):
        raise ValidationError(f"query_time must be finite and >= 0, got {query_time}")
    if frame_count < 1:
        raise ValidationError(f"frame_count must be >= 1, got {frame_count}")
    if not (math.isfinite(sample_rate) and sample_rate > 0.0):
        raise ValidationError(f"sample_rate must be finite and > 0, got {sample_rate}")
    times = tuple(
        max(0.0, query_time - (frame_count - 1 - k) / sample_rate)
        for k in range(frame_count)
    )
    return SamplingPlan(
        query_time=query_time,
        frame_times=times,
        sample_rate=sample_rate,
        frame_count=frame_count,
    )
