"""Tests of the metronome's speed arithmetic on synthetic ticks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

import metronome


def _metronome(ticks):
    m = metronome.Metronome(env={}, cwd=".")
    m.ticks = ticks
    return m


def test_tick_s_averages_the_ticks_that_overlap_the_interval():
    # ticks of 1 s wall; the middle three run at half speed
    ticks = [(float(i), i + 1.0, 0.04 if 3 <= i < 6 else 0.02) for i in range(10)]
    m = _metronome(ticks)
    assert m.tick_s(3.0, 6.0) == pytest.approx(0.04)
    assert m.tick_s(2.5, 6.5) == pytest.approx((0.02 + 3 * 0.04 + 0.02) / 5)


def test_to_ref_s_scales_out_a_slow_core():
    ticks = [(float(i), i + 1.0, 0.02 if i < 5 else 0.04) for i in range(10)]
    m = _metronome(ticks)
    # the same work takes twice the CPU on the slow half and reads the same
    assert m.to_ref_s(1.0, 0.0, 5.0) == pytest.approx(m.to_ref_s(2.0, 5.0, 10.0))
    assert m.to_ref_s(1.0, 0.0, 5.0) == pytest.approx(metronome.TICK_REF_S / 0.02)


def test_short_interval_uses_the_nearest_ticks():
    ticks = [(float(i), i + 1.0, 0.01 * (i + 1)) for i in range(10)]
    m = _metronome(ticks)
    # no tick ends after 20 s: the three nearest are the last three
    assert m.tick_s(20.0, 20.1) == pytest.approx((0.08 + 0.09 + 0.10) / 3)


def test_too_few_ticks_fail_loudly():
    with pytest.raises(RuntimeError, match="ticked 2 times"):
        _metronome([(0.0, 1.0, 0.02), (1.0, 2.0, 0.02)]).tick_s(0.0, 2.0)
