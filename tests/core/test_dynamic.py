"""Tests for dynamic workspace updates (the Section VI motivation)."""

import random

import numpy as np
import pytest

from repro.churn import rebuild_twin, verify_parity
from repro.core import METHODS, make_selector
from repro.core import naive
from repro.core.dynamic import DynamicWorkspace
from repro.core.types import fingerprint
from repro.datasets.generators import make_instance
from repro.geometry.point import Point
from repro.rtree.validate import validate_rtree


def fresh_ws(seed=141, n_c=400, n_f=20, n_p=30) -> DynamicWorkspace:
    return DynamicWorkspace(make_instance(n_c, n_f, n_p, rng=seed))


def assert_consistent(ws: DynamicWorkspace):
    """All structures valid and all methods agree with the oracle."""
    validate_rtree(ws.r_c)
    validate_rtree(ws.rnn_tree)
    validate_rtree(ws.mnd_tree)
    oracle = naive.distance_reductions(ws)
    for name in METHODS:
        vec = make_selector(ws, name).distance_reductions()
        np.testing.assert_allclose(vec, oracle, atol=1e-6, err_msg=name)


class TestClientUpdates:
    def test_add_client_updates_everything(self):
        ws = fresh_ws()
        __ = ws.r_c, ws.rnn_tree, ws.mnd_tree  # materialise before updates
        n_before = ws.n_c
        client = ws.add_client(Point(123.4, 567.8))
        assert ws.n_c == n_before + 1
        assert client.dnn == pytest.approx(
            min(Point(123.4, 567.8).distance_to(Point(f.x, f.y)) for f in ws.facilities)
        )
        assert_consistent(ws)

    def test_remove_client_updates_everything(self):
        ws = fresh_ws()
        __ = ws.r_c, ws.rnn_tree, ws.mnd_tree
        victim = ws.clients[17]
        ws.remove_client(victim)
        assert victim not in ws.clients
        assert_consistent(ws)

    def test_remove_unknown_client_raises(self):
        ws = fresh_ws()
        from repro.core.types import Client

        with pytest.raises(ValueError):
            ws.remove_client(Client(999_999, 0, 0, 1))

    def test_client_ids_never_reused(self):
        ws = fresh_ws(n_c=10)
        ws.remove_client(ws.clients[5])
        fresh = ws.add_client(Point(1, 1))
        assert fresh.cid not in {c.cid for c in ws.clients if c is not fresh}

    def test_structures_built_after_updates_are_equivalent(self):
        """Updates made before a structure is materialised must be seen
        when it is eventually built."""
        ws = fresh_ws()
        ws.add_client(Point(5, 5))
        ws.remove_client(ws.clients[0])
        assert ws.mnd_tree.num_entries == ws.n_c
        assert_consistent(ws)


NAN, INF = float("nan"), float("inf")


class TestRejectedInput:
    """The mutators reject what the constructor and the service reject,
    before they change any state."""

    @staticmethod
    def state(ws: DynamicWorkspace) -> tuple:
        clock = ws.region_clock
        select = make_selector(ws, "SS").select()
        dr = make_selector(ws, "SS").distance_reductions()
        return (
            ws.n_c,
            ws.n_f,
            (clock.epoch, clock.select_epoch, clock.evaluate_epoch),
            fingerprint(select),
            dr.tobytes(),
        )

    @pytest.mark.parametrize(
        "point, weight",
        [
            ((1e200, 1e200), 1.0),
            ((NAN, 1.0), 1.0),
            ((1.0, INF), 1.0),
            ((-(2.0**511), 1.0), 1.0),
            ((1.0, 1.0), NAN),
            ((1.0, 1.0), INF),
            ((1.0, 1.0), -1.0),
        ],
    )
    def test_add_client_rejects(self, point, weight):
        ws = DynamicWorkspace(make_instance(300, 10, 20, rng=5))
        before = self.state(ws)
        with pytest.raises(ValueError):
            ws.add_client(point, weight=weight)
        assert self.state(ws) == before

    @pytest.mark.parametrize(
        "point", [(INF, 2.0), (NAN, 2.0), (2.0, -INF), (1e200, 1e200)]
    )
    def test_add_facility_rejects(self, point):
        ws = DynamicWorkspace(make_instance(300, 10, 20, rng=5))
        before = self.state(ws)
        with pytest.raises(ValueError):
            ws.add_facility(point)
        assert self.state(ws) == before

    def test_limits_are_inclusive(self):
        """A coordinate at ``COORD_LIMIT`` and a zero weight are valid."""
        ws = DynamicWorkspace(make_instance(300, 10, 20, rng=5))
        ws.add_client((1.0, 2.0**510), weight=0.0)
        ws.add_facility((-(2.0**510), 1.0))
        assert (ws.n_c, ws.n_f) == (301, 11)


class TestFacilityUpdates:
    def test_add_facility_shrinks_nfcs(self):
        ws = fresh_ws()
        __ = ws.rnn_tree, ws.mnd_tree, ws.r_f
        target = Point(ws.clients[3].x, ws.clients[3].y)
        old_dnn = ws.clients[3].dnn
        ws.add_facility(target)
        assert ws.clients[3].dnn == pytest.approx(0.0)
        assert ws.clients[3].dnn < old_dnn
        assert_consistent(ws)

    def test_remove_facility_grows_nfcs(self):
        ws = fresh_ws()
        __ = ws.rnn_tree, ws.mnd_tree
        victim = ws.facilities[0]
        served = [
            c
            for c in ws.clients
            if abs(Point(c.x, c.y).distance_to(Point(victim.x, victim.y)) - c.dnn)
            <= 1e-9
        ]
        old = {c.cid: c.dnn for c in served}
        ws.remove_facility(victim)
        for c in served:
            assert c.dnn >= old[c.cid] - 1e-9
        assert_consistent(ws)

    def test_remove_last_facility_rejected(self):
        ws = fresh_ws(n_f=1)
        with pytest.raises(ValueError):
            ws.remove_facility(ws.facilities[0])

    def test_open_then_close_is_identity(self):
        """Opening a facility and closing it again restores every dnn."""
        ws = fresh_ws()
        __ = ws.rnn_tree, ws.mnd_tree
        before = [c.dnn for c in ws.clients]
        site = ws.add_facility(Point(444, 222))
        ws.remove_facility(site)
        after = [c.dnn for c in ws.clients]
        assert after == pytest.approx(before, abs=1e-9)
        assert_consistent(ws)

    def test_warm_decodes_track_an_open_then_close(self):
        """Every leaf decode is warm when a facility opens on the winning
        site and closes again, and when a serving facility closes; the
        in-place updates must dirty each decode they stale, or a method
        sums with old radii.  (The exact dirty set, branch nodes
        included, is pinned in tests/rtree/test_update.py.)"""
        ws = fresh_ws(seed=7, n_c=2000, n_f=40, n_p=60)

        def check():
            twin = rebuild_twin(ws)
            verify_parity(ws, twin=twin)  # its selects re-warm every decode
            for method in sorted(METHODS):
                assert np.array_equal(
                    make_selector(ws, method).distance_reductions(),
                    make_selector(twin, method).distance_reductions(),
                ), method

        for method in sorted(METHODS):
            make_selector(ws, method).select()
        winner = make_selector(ws, "MND").select().location
        before = ws.client_xyd[:, 2].copy()
        site = ws.add_facility(Point(winner.x, winner.y))
        assert (ws.client_xyd[:, 2] < before).sum() > 1
        check()
        ws.remove_facility(site)
        assert np.array_equal(ws.client_xyd[:, 2], before)
        check()
        ws.remove_facility(ws.facilities[0])
        assert (ws.client_xyd[:, 2] > before).sum() > 1
        check()


class TestUpdateStorms:
    def test_random_update_sequence_stays_consistent(self):
        rng = random.Random(151)
        ws = fresh_ws(n_c=150, n_f=8, n_p=15)
        __ = ws.r_c, ws.rnn_tree, ws.mnd_tree, ws.r_f
        for step in range(60):
            roll = rng.random()
            if roll < 0.35:
                ws.add_client(Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
            elif roll < 0.6 and ws.n_c > 10:
                ws.remove_client(rng.choice(ws.clients))
            elif roll < 0.85:
                ws.add_facility(Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
            elif ws.n_f > 2:
                ws.remove_facility(rng.choice(ws.facilities))
        assert_consistent(ws)

    def test_selection_tracks_updates(self):
        """Adding a facility right on last round's winner dethrones it."""
        ws = fresh_ws()
        first = make_selector(ws, "MND").select()
        ws.add_facility(Point(first.location.x, first.location.y))
        second = make_selector(ws, "MND").select()
        oracle_site, oracle_dr = naive.select(ws)
        assert second.dr == pytest.approx(oracle_dr, abs=1e-6)
        # The spot just served cannot win again with positive reduction.
        vec = make_selector(ws, "MND").distance_reductions()
        assert vec[first.location.sid] == pytest.approx(0.0, abs=1e-9)
