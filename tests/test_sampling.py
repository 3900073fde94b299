import pytest
from hypothesis import given, strategies as st

from vista.errors import ValidationError
from vista.sampling import plan_frames


def test_paper_constants_example():
    assert plan_frames(4.0, 8, 2.0) == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def test_stream_start_clamps_to_zero():
    assert plan_frames(0.0, 8, 2.0) == (0.0,) * 8


def test_partial_clamping():
    assert plan_frames(1.0, 8, 2.0) == (0, 0, 0, 0, 0, 0, 0.5, 1.0)


def test_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        plan_frames(-1.0)
    with pytest.raises(ValidationError):
        plan_frames(float("nan"))
    with pytest.raises(ValidationError):
        plan_frames(1.0, frame_count=0)
    with pytest.raises(ValidationError):
        plan_frames(1.0, sample_rate=0.0)


@given(
    st.floats(0, 1000),
    st.integers(1, 32),
    st.floats(0.1, 60),
)
def test_last_frame_anchored_and_spacing(query, count, rate):
    times = plan_frames(query, count, rate)
    assert len(times) == count
    assert times[-1] == query
    assert all(t >= 0 for t in times)
    step = 1.0 / rate
    for earlier, later in zip(times, times[1:]):
        gap = later - earlier
        # inside the clamped region gaps are 0; once unclamped they equal the
        # step, except for one fractional gap right at the stream boundary
        assert -1e-12 <= gap <= step * (1 + 1e-9)
        if earlier > 0.0:
            assert gap == pytest.approx(step, rel=1e-9)


@given(st.floats(0, 100), st.floats(0, 100))
def test_shift_invariance_past_stream_start(base, shift):
    count, rate = 8, 2.0
    horizon = (count - 1) / rate
    query = base + horizon  # guarantees no clamping
    a = plan_frames(query, count, rate)
    b = plan_frames(query + shift, count, rate)
    for ta, tb in zip(a, b):
        assert tb - ta == pytest.approx(shift, abs=1e-9)
