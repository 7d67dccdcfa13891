"""Correctly rounded sums of ``dr`` terms.

Definition 2 makes ``dr(p)`` a sum over ``IS(p)``.  The kernels emit
one term per influencing pair (:func:`repro.kernels.accumulate_reductions`),
and :func:`exact_sums` rounds each potential's terms once, to the float
nearest their exact sum.  That value depends on the multiset of terms
alone: not on their order, on how a method's traversal grouped them
into tiles and tasks, on the worker count or on the scalar or vector
kernels.  Every method's reduce and :mod:`repro.core.naive` call it.

It is not a kernel with a scalar twin: both kernel sets emit terms and
share this one sum.  numpy and the standard library only.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def exact_sums(ids: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Each of ``n`` potentials' correctly rounded sum of its terms.

    ``out[k]`` is the float nearest the exact sum of
    ``terms[ids == k]`` (ties to even), and ``+0.0`` for a potential
    without terms.  The terms must be non-negative; a sum beyond the
    float range rounds to ``inf``, as IEEE addition would.

    One term is its own sum, and two sum to ``a + b``: one IEEE
    addition is correctly rounded.  Three or more go to
    :func:`math.fsum` (Shewchuk's exact partials).
    """
    ids = np.asarray(ids, dtype=np.intp)
    terms = np.asarray(terms, dtype=np.float64)
    counts = np.bincount(ids, minlength=n)
    out = np.zeros(n)
    t = terms[np.argsort(ids)]  # any order within a potential will do
    starts = np.cumsum(counts) - counts
    one = counts == 1
    out[one] = t[starts[one]]
    two = np.flatnonzero(counts == 2)
    with np.errstate(over="ignore"):  # beyond the float range: inf
        out[two] = t[starts[two]] + t[starts[two] + 1]
    many = np.flatnonzero(counts > 2)
    if len(many):
        values = t.tolist()
        for k, s, c in zip(
            many.tolist(), starts[many].tolist(), counts[many].tolist()
        ):
            out[k] = _fsum(values[s : s + c])
    return out


def _fsum(values: list[float]) -> float:
    """``math.fsum``, with ``inf`` where the exact sum leaves the float
    range: ``fsum`` raises ``OverflowError`` once a partial overflows,
    and the exact rational sum then decides."""
    try:
        return math.fsum(values)
    except OverflowError:
        if math.inf in values:
            return math.inf
        try:
            return float(sum(map(Fraction, values)))
        except OverflowError:
            return math.inf
