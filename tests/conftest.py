"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.workspace import Workspace
from repro.datasets.generators import SpatialInstance, make_instance
from repro.geometry.point import Point
from repro.geometry.rect import Rect

# ---------------------------------------------------------------------------
# Hypothesis profiles
# ---------------------------------------------------------------------------

#: Tier-1 runs every property test at hypothesis' default bound (100
#: draws where a test sets none); CI's smoke job runs the generated-
#: instance contract (``tests/core/test_generated.py``) deep, with
#: ``--hypothesis-profile=deep``.
settings.register_profile("tier1", max_examples=100)
settings.register_profile("deep", max_examples=2000)
settings.load_profile("tier1")

# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Coordinates inside (a superset of) the paper's data domain.
coords = st.floats(
    min_value=-100.0, max_value=1100.0, allow_nan=False, allow_infinity=False
)

#: Coordinates strictly inside the domain.
domain_coords = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


@st.composite
def points(draw, coord=coords):
    return Point(draw(coord), draw(coord))


@st.composite
def domain_points(draw):
    return Point(draw(domain_coords), draw(domain_coords))


@st.composite
def rects(draw, coord=coords):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def rects_containing(draw, inner: Rect):
    """A rectangle guaranteed to contain ``inner``."""
    pad = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
    return Rect(
        inner.xmin - draw(pad),
        inner.ymin - draw(pad),
        inner.xmax + draw(pad),
        inner.ymax + draw(pad),
    )


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_instance() -> SpatialInstance:
    """A small uniform instance shared by core-method tests."""
    return make_instance(n_c=800, n_f=40, n_p=60, rng=11)


@pytest.fixture
def small_workspace(small_instance) -> Workspace:
    return Workspace(small_instance)


@pytest.fixture
def tiny_instance() -> SpatialInstance:
    """The paper's Fig. 1 example, hand-checkable."""
    clients = [
        Point(1, 4), Point(1.5, 3), Point(2, 5), Point(6, 6),
        Point(7, 5.5), Point(2.5, 2.5), Point(6.5, 3), Point(7.5, 4),
    ]
    facilities = [Point(2.5, 4), Point(6.8, 4.3)]
    potentials = [Point(1.2, 4.2), Point(6.6, 5.6)]
    return SpatialInstance(
        name="fig1",
        clients=clients,
        facilities=facilities,
        potentials=potentials,
        domain=Rect(0, 0, 10, 10),
    )
