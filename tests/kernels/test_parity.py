"""End-to-end parity with the reference kernels: whole queries, not
just kernels.

The exactness contract of :mod:`repro.kernels` is that running a query
on the scalar reference (:func:`repro.kernels.scalar.installed`)
changes nothing observable about it: the selected location, the full
``dr`` vector (bit for bit), the total page reads and the
per-structure read split.  These tests run every method through
``select()`` on the vector kernels and on the reference on a shared
workspace and compare all of it, including the disk-resident MND
pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_selector
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.core.mnd import MaximumNFCDistance
from repro.experiments.runner import DEFAULT_METHODS
from repro.kernels import scalar


def run_cold(ws, method):
    """One fresh query: cleared decode cache, fresh I/O accounting."""
    ws.invalidate_leaf_cache()
    ws.reset_stats()
    selector = make_selector(ws, method)
    result = selector.select()
    return result, selector.distance_reductions(), selector


def assert_exact_parity(ws, method):
    vec, vec_dr, __ = run_cold(ws, method)
    with scalar.installed():
        ref, ref_dr, __ = run_cold(ws, method)
    assert vec.location.sid == ref.location.sid
    assert vec.dr == ref.dr  # bitwise, not approximately
    assert np.array_equal(vec_dr, ref_dr)
    assert vec.io_total == ref.io_total
    assert dict(vec.io_reads) == dict(ref.io_reads)


@pytest.mark.parametrize("method", DEFAULT_METHODS)
def test_select_is_backend_invariant(small_workspace, method):
    assert_exact_parity(small_workspace, method)


def test_influence_sets_are_backend_invariant(small_workspace):
    ws = small_workspace
    ws.invalidate_leaf_cache()
    vec = MaximumNFCDistance(ws).influence_sets()
    with scalar.installed():
        ws.invalidate_leaf_cache()
        ref = MaximumNFCDistance(ws).influence_sets()
    assert vec == ref


def test_disk_mnd_is_backend_invariant(small_workspace, tmp_path):
    persisted = persist_indexes(small_workspace, tmp_path)
    with DiskWorkspace(persisted) as frozen:
        assert_exact_parity(frozen, "MND")


def test_backends_share_one_decode_cache_story(small_workspace):
    """A warm cache populated by the vector kernels must serve the
    reference exactly: cached columns are the same values either way."""
    ws = small_workspace
    ws.invalidate_leaf_cache()
    ws.reset_stats()
    vec = make_selector(ws, "MND").select()
    with scalar.installed():
        ws.reset_stats()  # cache deliberately kept warm
        ref = make_selector(ws, "MND").select()
    assert ref.dr == vec.dr
    assert ref.io_total == vec.io_total
