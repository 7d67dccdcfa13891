"""Tests for core types, the one-call API and the I/O latency model."""

import pytest

from repro.core import METHODS, Workspace, make_selector, select_location
from repro.core.types import Client, SelectionResult, Site
from repro.datasets.generators import make_instance
from repro.geometry.point import Point


class TestTypes:
    def test_site_point(self):
        s = Site(3, 1.0, 2.0)
        assert s.point == Point(1.0, 2.0)

    def test_client_identity_by_id(self):
        a = Client(1, 0, 0, 5.0)
        b = Client(1, 9, 9, 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != "not a client"
        assert Client(2, 0, 0, 5.0) != a

    def test_client_repr(self):
        c = Client(7, 1.0, 2.0, 3.0)
        assert "Client(7" in repr(c)

    def test_result_repr_mentions_everything(self):
        r = SelectionResult(
            method="MND",
            location=Site(1, 2.0, 3.0),
            dr=4.5,
            elapsed_s=0.1,
            cpu_s=0.05,
            io_total=7,
            index_pages=3,
        )
        text = repr(r)
        assert "MND" in text and "io=7" in text and "index=3p" in text


class TestOneCallAPI:
    def test_select_location_defaults_to_mnd(self):
        result = select_location([(0, 0), (1, 1)], [(10, 10)], [(0, 1), (20, 20)])
        assert result.method == "MND"
        assert result.location.sid == 0

    def test_select_location_other_methods(self):
        for name in METHODS:
            result = select_location([(0, 0)], [(5, 0)], [(1, 0)], method=name.lower())
            assert result.location.sid == 0
            assert result.dr == pytest.approx(4.0)

    def test_unknown_method(self):
        ws = Workspace(make_instance(10, 2, 2, rng=0))
        with pytest.raises(ValueError, match="unknown method"):
            make_selector(ws, "XYZ")


class TestBufferAblation:
    """Named for the retired buffer-pool ablation (E8); the latency model
    it also covered remains."""

    def test_zero_latency_workspace(self):
        inst = make_instance(200, 10, 20, rng=52)
        ws = Workspace(inst, io_latency_s=0.0)
        r = make_selector(ws, "MND").select()
        assert r.elapsed_s == pytest.approx(r.cpu_s)
