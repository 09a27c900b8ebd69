"""Unit tests for RNG streams and tracing."""

from repro.des.rng import RandomStreams, derive_seed
from repro.des.trace import NullTracer, Tracer


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_streams_are_independent_of_each_other(self):
        one = RandomStreams(1)
        two = RandomStreams(1)
        # draw from "a" before "b" in one registry, after in the other
        one.get("a").random(100)
        assert list(one.get("b").random(3)) == list(two.get("b").random(3))

    def test_names_and_root_seeds_select_distinct_streams(self):
        streams = RandomStreams(5)
        a = list(streams.get("a").random(3))
        assert a != list(streams.get("b").random(3))
        assert a != list(RandomStreams(6).get("a").random(3))
        assert a == list(RandomStreams(5).get("a").random(3))

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestTracer:
    def test_records_and_selects_by_prefix(self):
        tracer = Tracer()
        tracer.emit(1.0, "mac.tx", 3, frame="RTS")
        tracer.emit(2.0, "phy.rx", 4, frame="CTS")
        assert len(tracer) == 2
        assert [r.category for r in tracer.select("mac")] == ["mac.tx"]
        assert tracer.select("phy", node=4)[0].detail["frame"] == "CTS"
        assert tracer.select("phy", node=9) == []

    def test_category_filter(self):
        tracer = Tracer(categories=["mac"])
        tracer.emit(1.0, "mac.tx", 1)
        tracer.emit(1.0, "phy.rx", 1)
        assert len(tracer) == 1

    def test_format_is_readable(self):
        tracer = Tracer()
        tracer.emit(1.5, "mac.tx", 7, frame="RTS 7->3")
        text = tracer.format()
        assert "mac.tx" in text and "RTS 7->3" in text

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(0.0, "x", 0)
        tracer.clear()
        assert len(tracer) == 0

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        tracer.emit(1.0, "mac.tx", 1)
        assert len(tracer) == 0
        assert not tracer.enabled
        assert tracer.format() == ""
        assert list(tracer) == []
