"""``exact_sums``: each potential's correctly rounded sum of its terms.

The oracle is ``fractions.Fraction``: an exact rational sum, rounded once
by ``float`` (ties to even), with ``inf`` past the float range as IEEE
addition would give.  Terms are drawn across the whole exponent range,
with subnormals, ``+0.0`` terms (zero weights), halfway cases and sums
that overflow; the answer must not depend on the order of the terms.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels

MAX = sys.float_info.max
TINY = 5e-324

#: Non-negative finite floats from the whole exponent range, with the
#: values at its edges drawn often.
terms = st.one_of(
    st.floats(min_value=0.0, max_value=MAX, allow_subnormal=True),
    st.sampled_from([0.0, TINY, 2.0**-1022, 1.0, 2.0**-53, 2.0**970, MAX]),
)


def fraction_sum(values) -> float:
    total = sum(map(Fraction, values), Fraction(0))
    try:
        return float(total)
    except OverflowError:
        return math.inf


@st.composite
def halfway(draw):
    """``[x, ulp(x) / 2]`` in some order, and maybe a third term that
    tips the tie either way or leaves it: the sums sit exactly on, or
    just off, a rounding boundary."""
    x = draw(st.floats(min_value=2.0**-1000, max_value=2.0**1000))
    half = math.ulp(x) / 2
    values = [x, half]
    nudge = draw(st.sampled_from([None, 1.0, -1.0]))
    if nudge is not None:
        values.append(half * 2.0**-30 if nudge > 0 else 0.0)
    return draw(st.permutations(values))


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestExactSums:
    @given(groups=st.lists(st.lists(terms, max_size=6), min_size=1, max_size=5))
    @example(groups=[[MAX, 2.0**970], [MAX, 2.0**970, 0.0], [1e308] * 2])
    @example(groups=[[MAX / 2, MAX / 2, 2.0**969, 2.0**969]])
    @example(groups=[[MAX, 2.0**969, 2.0**969 - 2.0**917]])
    @example(groups=[[TINY] * 3, [2.0**-1074, 2.0**1023, 2.0**-1074], [0.0] * 3])
    @settings(max_examples=200, deadline=None)
    def test_groups_match_the_fraction_sums(self, groups):
        ids = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        flat = np.array([v for g in groups for v in g], dtype=np.float64)
        rng = np.random.default_rng(len(flat))
        order = rng.permutation(len(flat))
        got = kernels.exact_sums(ids[order], flat[order], len(groups) + 1)
        want = [fraction_sum(g) for g in groups] + [0.0]
        assert bits(got) == bits(want)
        assert not np.signbit(got).any()  # +0.0 without terms or of zeros

    @given(values=halfway())
    def test_halfway_cases_round_to_even(self, values):
        got = kernels.exact_sums(np.zeros(len(values), dtype=np.intp), values, 1)
        assert bits(got) == bits([fraction_sum(values)])

    def test_a_sum_past_the_float_range_is_inf(self):
        got = kernels.exact_sums(
            [0, 0, 1, 1, 1, 2, 2, 2], [MAX, MAX, MAX, MAX, 1.0, MAX, 2.0**970, 0.0], 3
        )
        assert got.tolist() == [math.inf, math.inf, math.inf]

    def test_just_short_of_the_boundary_stays_finite(self):
        """A sum a hair below ``MAX + ulp(MAX) / 2`` rounds to ``MAX``."""
        values = [MAX, 2.0**969, 2.0**969 - 2.0**917]
        assert kernels.exact_sums([0, 0, 0], values, 1)[0] == MAX

    def test_no_terms(self):
        got = kernels.exact_sums(np.zeros(0, dtype=np.intp), np.zeros(0), 3)
        assert bits(got) == bits([0.0, 0.0, 0.0])
