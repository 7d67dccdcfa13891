"""The rebuild twin: incremental maintenance proven against a rebuild.

The incremental churn engine's whole claim is that after *any* mutation
stream a :class:`~repro.core.dynamic.DynamicWorkspace` is
indistinguishable from a workspace rebuilt from scratch over the same
(mutated) data.  :func:`verify_parity` makes that claim falsifiable in
three layers, strongest first:

1. **bit-exact state** — the maintained ``(x, y, dnn)`` array and the
   weight vector equal the rebuild's byte for byte.  The rebuild runs
   the grid NN-join from nothing; the maintainer only ever uses the
   same ``sqrt(dx*dx + dy*dy)`` formula, so this is an equality of
   IEEE doubles, not an approximation.  ``data_bounds`` must match
   exactly too (QVC clips cells against it);
2. **byte-identical evaluate reports** — dense vectorised passes over
   the state checked in (1), so they must equal the rebuild's bitwise;
3. **byte-identical selections** — an incrementally grown Guttman tree
   groups leaves differently from the rebuild's bulk-loaded one, but
   every method's ``dr(p)`` is the correctly rounded sum of its terms
   (:func:`repro.kernels.exact_sums`), which no grouping moves.  So the
   chosen location and the whole ``dr`` vector of every method must
   equal the rebuild's bit for bit.

Any violation raises :class:`AssertionError` with the failing layer
named — the bench recorder and the smoke runner call this after every
mutation stream, so a maintenance bug can never produce a
plausible-looking record.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import METHODS, Workspace, make_selector
from repro.core.dynamic import DynamicWorkspace
from repro.core.evaluate import evaluate_location


def rebuild_twin(ws: DynamicWorkspace) -> Workspace:
    """A from-scratch workspace over ``ws``'s *current* (mutated) data.

    The twin re-runs the NN join and re-bulk-loads every index from the
    live instance — it shares no maintained state with ``ws``.
    """
    return Workspace(
        ws.instance,
        page_size=ws.page_size,
        io_latency_s=ws.io_latency_s,
    )


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"churn parity: {message}")


def verify_parity(
    ws: DynamicWorkspace,
    methods: Optional[Sequence[str]] = None,
    evaluate_ids: Optional[Sequence[int]] = None,
    twin: Optional[Workspace] = None,
) -> dict:
    """Assert ``ws`` is indistinguishable from a from-scratch rebuild.

    Returns a small report dict (per-method ``dr`` of both sides) for
    logging; raises :class:`AssertionError` on the first violation.
    """
    chosen = tuple(methods) if methods is not None else tuple(sorted(METHODS))
    if twin is None:
        twin = rebuild_twin(ws)

    # Layer 1: bit-exact maintained state.
    _check(
        ws.client_xyd.shape == twin.client_xyd.shape,
        f"client table shape {ws.client_xyd.shape} != rebuild "
        f"{twin.client_xyd.shape}",
    )
    _check(
        np.array_equal(ws.client_xyd, twin.client_xyd),
        "maintained (x, y, dnn) array is not bit-identical to the "
        "rebuild's from-scratch NN join",
    )
    _check(
        np.array_equal(ws.client_w, twin.client_w),
        "maintained weight vector differs from the rebuild",
    )
    _check(
        tuple(ws.data_bounds) == tuple(twin.data_bounds),
        f"maintained data_bounds {tuple(ws.data_bounds)} != rebuilt "
        f"{tuple(twin.data_bounds)}",
    )
    _check(
        [(s.x, s.y) for s in ws.facilities]
        == [(s.x, s.y) for s in twin.facilities],
        "facility table differs from the rebuild",
    )

    # Layer 2: byte-identical evaluate reports (dense passes over the
    # state layer 1 just proved equal — any difference is a real bug).
    ids = (
        list(evaluate_ids)
        if evaluate_ids is not None
        else list(range(min(ws.n_p, 8)))
    )
    for candidate in ids:
        mine = evaluate_location(ws, candidate)
        theirs = evaluate_location(twin, candidate)
        _check(
            (
                mine.dr,
                mine.influence_count,
                mine.avg_nfd_before,
                mine.avg_nfd_after,
                mine.max_client_gain,
            )
            == (
                theirs.dr,
                theirs.influence_count,
                theirs.avg_nfd_before,
                theirs.avg_nfd_after,
                theirs.max_client_gain,
            ),
            f"evaluate({candidate}) differs from the rebuild",
        )

    # Layer 3: selections.
    report: dict = {"methods": {}}
    for name in chosen:
        mine_selector = make_selector(ws, name)
        theirs_selector = make_selector(twin, name)
        mine = mine_selector.select()
        theirs = theirs_selector.select()
        _check(
            (mine.location.sid, mine.location.x, mine.location.y)
            == (theirs.location.sid, theirs.location.x, theirs.location.y),
            f"{name}: selected location {mine.location} != rebuild's "
            f"{theirs.location}",
        )
        _check(
            np.array_equal(
                mine_selector.distance_reductions(),
                theirs_selector.distance_reductions(),
            ),
            f"{name}: dr vector differs from the rebuild's (best dr "
            f"{mine.dr!r} against {theirs.dr!r}; must be byte-identical)",
        )
        report["methods"][name] = {"dr": mine.dr, "rebuilt_dr": theirs.dr}
    return report
