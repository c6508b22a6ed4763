"""Unit tests for the self-time rollup in ``perfbench/layers.py``."""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from layers import LAYERS, LayerClock, resolve  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_book_self_time_to_each_layer():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def leaf():
        fake.tick(2.0)

    def middle():
        fake.tick(1.0)
        leaf_timed()
        fake.tick(0.5)

    def outer():
        fake.tick(3.0)
        middle_timed()

    leaf_timed = clock.wrap("packet", "m:leaf", leaf)
    middle_timed = clock.wrap("dataplane", "m:middle", middle)
    outer_timed = clock.wrap("sim", "m:outer", outer)
    outer_timed()

    assert clock.layer_self("packet", "setup") == pytest.approx(2.0)
    assert clock.layer_self("dataplane", "setup") == pytest.approx(1.5)
    assert clock.layer_self("sim", "setup") == pytest.approx(3.0)
    total = sum(clock.self_s.values())
    assert total == pytest.approx(fake.now)


def test_recursive_spans_never_count_an_interval_twice():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def countdown(n):
        fake.tick(1.0)
        if n:
            timed(n - 1)
            fake.tick(0.25)

    timed = clock.wrap("packet", "m:countdown", countdown)
    timed(3)

    # Four frames of 1 s each plus three returns of 0.25 s.
    assert fake.now == pytest.approx(4.75)
    assert clock.layer_self("packet", "setup") == pytest.approx(4.75)
    assert clock.calls_of("m:countdown", "setup") == 4


def test_same_layer_parent_and_child_split_by_self_time():
    fake = FakeClock()
    clock = LayerClock(clock=fake)
    inner = clock.wrap("packet", "m:encode", lambda: fake.tick(2.0))

    def length():
        fake.tick(0.5)
        inner()

    clock.wrap("packet", "m:len", length)()
    assert clock.layer_self("packet", "setup") == pytest.approx(2.5)
    assert clock.calls_of("m:len", "setup") == 1
    assert clock.calls_of("m:encode", "setup") == 1


def test_self_time_is_booked_to_the_phase_the_span_ends_in():
    fake = FakeClock()
    clock = LayerClock(clock=fake)
    step = clock.wrap("sim", "m:step", lambda: fake.tick(1.0))
    step()
    clock.phase = "window"
    step()
    step()
    assert clock.layer_self("sim", "setup") == pytest.approx(1.0)
    assert clock.layer_self("sim", "window") == pytest.approx(2.0)
    assert clock.calls_of("m:step", "window") == 2


def test_exceptions_still_close_the_span():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def boom():
        fake.tick(1.0)
        raise ValueError("x")

    timed = clock.wrap("apps", "m:boom", boom)
    with pytest.raises(ValueError):
        timed()
    assert clock.layer_self("apps", "setup") == pytest.approx(1.0)
    assert clock._stack == []


def test_hooks_see_arguments_and_result():
    clock = LayerClock()
    seen = []
    timed = clock.wrap("southbound", "m:enc", lambda x: x * 2,
                       hook=lambda c, args, result: seen.append(
                           (args, result)))
    assert timed(21) == 42
    assert seen == [((21,), 42)]


def test_every_layer_target_resolves():
    for specs in LAYERS.values():
        for spec in specs:
            assert callable(resolve(spec).func), spec


def test_install_rebinds_names_imported_elsewhere_and_uninstall_restores():
    import repro.packet.checksum as checksum
    import repro.packet.ipv4 as ipv4

    original = checksum.internet_checksum
    clock = LayerClock()
    clock.install({"packet": ("repro.packet.checksum:internet_checksum",)})
    try:
        assert ipv4.internet_checksum is not original
        assert ipv4.internet_checksum(b"\x00\x01") == original(b"\x00\x01")
        assert clock.calls_of("repro.packet.checksum:internet_checksum",
                              "setup") == 1
    finally:
        clock.uninstall()
    assert ipv4.internet_checksum is original
    assert checksum.internet_checksum is original
