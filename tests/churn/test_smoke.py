"""Churn smoke checks (CI: ``pytest -m smoke tests/churn``).

Two stages:

1. **maintenance parity** — a scripted, deterministic stream of 40
   interleaved mutations (client arrivals/departures, facility
   openings/closures, including removing records the stream itself
   added) runs against a :class:`DynamicWorkspace` whose trees were all
   built *before* the stream, so every structure is maintained in
   place.  Afterwards :func:`repro.churn.verify_parity` must pass — the
   maintained state bit-identical to a from-scratch rebuild, answers
   byte-identical where the computation is shape-free — and the
   maintainer's own self-check must agree with a fresh grid join;

2. **warm cache under writes** — against a live service over TCP, a
   mutation whose affected region covers no potential site (a client
   arriving exactly on a facility: its NFC is a point) must report
   ``select_changed: false`` and leave the select cache warm, while a
   mutation whose NFC box does cover a potential must report
   ``select_changed: true`` and retire it.  The region clock's epochs
   and the cache survival rate are read back through ``stats`` to prove
   the telemetry surface agrees.
"""

from __future__ import annotations

import random

import pytest

from repro.churn import verify_parity
from repro.core import METHODS, DynamicWorkspace, make_selector
from repro.datasets import make_instance
from repro.service import ServiceClient, ServiceConfig, serve_in_thread

pytestmark = pytest.mark.smoke

SMOKE_SEED = 7
SMOKE_STREAM_SEED = 11
SMOKE_MUTATIONS = 40


def scripted_stream(ws: DynamicWorkspace, mutations: int, seed: int) -> dict:
    """Apply a deterministic interleaved mutation stream; returns counts."""
    rng = random.Random(seed)
    counts = {
        "add_client": 0,
        "remove_client": 0,
        "add_facility": 0,
        "remove_facility": 0,
    }
    for _ in range(mutations):
        roll = rng.random()
        if roll < 0.40:
            ws.add_client((rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)))
            counts["add_client"] += 1
        elif roll < 0.60 and ws.n_c > 10:
            ws.remove_client(rng.choice(ws.clients))
            counts["remove_client"] += 1
        elif roll < 0.85:
            ws.add_facility((rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)))
            counts["add_facility"] += 1
        elif ws.n_f > 2:
            ws.remove_facility(rng.choice(ws.facilities))
            counts["remove_facility"] += 1
    return counts


def test_stream_on_a_fully_built_workspace_matches_a_rebuild():
    ws = DynamicWorkspace(make_instance(400, 20, 30, rng=SMOKE_SEED))
    # Build every index first so the whole stream exercises in-place
    # maintenance, never a lazy rebuild.
    for method in sorted(METHODS):
        make_selector(ws, method).select()
    counts = scripted_stream(ws, SMOKE_MUTATIONS, SMOKE_STREAM_SEED)
    # Every kind of mutation ran, so every maintenance path is covered.
    assert all(counts.values()), counts
    verify_parity(ws)
    assert ws.maintainer.verify(), "maintainer disagrees with a fresh grid join"
    assert ws.region_clock.epoch == sum(counts.values())


def test_disjoint_writes_keep_the_select_cache_warm():
    ws = DynamicWorkspace(make_instance(400, 20, 30, rng=SMOKE_SEED))
    with serve_in_thread({"default": ws}, ServiceConfig(workers=1)) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            assert not client.select("MND").cached, "first select hit the cache"
            assert client.select("MND").cached, "repeat select missed the cache"

            # A client arriving exactly on a facility has dnn = 0: its
            # affected region is a single point, which covers no
            # potential site — the cached selection must survive.
            on_facility = [ws.facilities[0].x, ws.facilities[0].y]
            disjoint = client.update("add_client", point=on_facility)
            assert disjoint.get("select_changed") is False
            assert client.select("MND").cached, (
                "disjoint mutation dropped the warm select cache"
            )

            # A client arriving on a potential site has that site inside
            # its NFC box by construction — the cache must be retired.
            on_potential = [ws.potentials[0].x, ws.potentials[0].y]
            covering = client.update("add_client", point=on_potential)
            assert covering.get("select_changed") is True
            assert not client.select("MND").cached, (
                "covering mutation served a stale cached select"
            )

            workspace = client.stats()["workspaces"]["default"]
    clock = workspace["region_clock"]
    assert clock["epoch"] == 2
    # Only the covering mutation bumps the select epoch.
    assert clock["select_epoch"] == 1
    # The disjoint mutation kept cache entries alive.
    assert workspace["cache_survival"] is not None
    assert workspace["cache_survival"] > 0.0
