"""Unit tests for statistics primitives."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.stats import Counter, StatSet, Utilization, ratio


class TestCounter:
    def test_add_and_total(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.total == 5

    def test_window(self):
        c = Counter("x")
        c.add(10)
        c.mark()
        c.add(3)
        assert c.total == 13
        assert c.windowed == 3

    def test_remark_resets_window(self):
        c = Counter("x")
        c.add(5)
        c.mark()
        c.add(5)
        c.mark()
        assert c.windowed == 0


class TestUtilization:
    def test_load_fraction(self):
        u = Utilization("bus")
        u.mark(0)
        u.add_busy(40)
        assert u.load(100) == pytest.approx(0.4)

    def test_windowing(self):
        u = Utilization("bus")
        u.add_busy(1000)
        u.mark(5000)
        u.add_busy(10)
        assert u.load(5100) == pytest.approx(0.1)
        assert u.busy_total == 1010

    def test_negative_busy_rejected(self):
        with pytest.raises(ConfigurationError):
            Utilization("x").add_busy(-1)

    def test_empty_window_is_zero(self):
        u = Utilization("x")
        u.mark(10)
        assert u.load(10) == 0.0


class TestStatSet:
    def test_lazy_counter_creation(self):
        stats = StatSet("cache")
        stats.incr("hits")
        stats.incr("hits", 2)
        assert stats["hits"].total == 3
        assert "hits" in stats
        assert "misses" not in stats

    def test_totals_and_windowed(self):
        stats = StatSet("s")
        stats.incr("a", 2)
        stats.incr("b", 3)
        stats.mark_all()
        stats.incr("a", 5)
        assert stats.totals() == {"a": 7, "b": 3}
        assert stats.windowed() == {"a": 5, "b": 0}

    def test_items_order_is_insertion(self):
        stats = StatSet("s")
        for key in ("z", "a", "m"):
            stats.incr(key)
        assert [k for k, _ in stats.items()] == ["z", "a", "m"]

    def test_counter_names_carry_set_name(self):
        stats = StatSet("cache3")
        assert stats.counter("hit").name == "cache3.hit"


class TestRatio:
    def test_normal(self):
        assert ratio(1, 4) == 0.25

    def test_zero_denominator_default(self):
        assert ratio(5, 0) == 0.0
        assert ratio(5, 0, default=1.5) == 1.5
