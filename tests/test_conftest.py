"""The shared test setup: property tests draw the same examples every run."""

from hypothesis import given, settings
from hypothesis import strategies as st


def _draws():
    seen = []

    @settings(max_examples=30)
    @given(st.lists(st.integers(), max_size=5))
    def record(values):
        seen.append(values)

    record()
    return seen


def test_two_runs_draw_the_same_examples():
    first = _draws()
    assert len(first) > 1
    assert _draws() == first
