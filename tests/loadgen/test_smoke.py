"""Loadgen smoke checks (CI: ``pytest -m smoke tests/loadgen``).

One short closed-loop burst with the default skewed mix against an
ephemeral server backs four checks that make load generation a
trustworthy adversary:

1. **plan fidelity** — every planned request produced exactly one
   outcome (no silent drops, no duplicates);
2. **zero protocol errors** — pushback (``queue_full``,
   ``deadline_exceeded``) is legitimate under load, but a
   ``bad_request``/``internal``/``connection`` error means the
   generator or the service is broken;
3. **cache hits under skew** — the Zipf-skewed select stream must
   actually land repeated keys in the service's result cache (that is
   the workload property the generator exists to emulate);
4. **bounded queue-full rate** — with the default admission bound the
   burst must be mostly admitted; bounded retries absorb transient
   pushback.
"""

from __future__ import annotations

import pytest

from repro.loadgen.config import LoadgenConfig
from repro.loadgen.metrics import SLOPolicy, render_slo_report
from repro.loadgen.runner import run_loadgen, self_hosted

pytestmark = pytest.mark.smoke

SMOKE_SEED = 11
SMOKE_SIZES = dict(n_c=800, n_f=40, n_p=60)

#: A short, skewed closed-loop burst: 4 clients × (3 warmup + 20
#: measured) requests, 80/10/10 select/evaluate/update mix, alpha 0.9.
SMOKE_CONFIG = LoadgenConfig(
    mode="closed",
    clients=4,
    requests_per_client=20,
    warmup_requests=3,
    zipf_alpha=0.9,
    timeout_s=15.0,
    seed=SMOKE_SEED,
)

#: The smoke bar: no protocol errors at all, a mostly-admitted burst,
#: and the skew visibly warming the result cache.
SMOKE_POLICY = SLOPolicy(
    max_protocol_error_rate=0.0,
    max_queue_full_rate=0.10,
    max_deadline_miss_rate=0.10,
    min_cache_hit_rate=1e-9,  # "nonzero", without guessing the exact rate
)


@pytest.fixture(scope="module")
def burst():
    with self_hosted(seed=SMOKE_SEED, **SMOKE_SIZES) as handle:
        return run_loadgen(SMOKE_CONFIG, handle.host, handle.port)


def check(burst, name: str) -> None:
    """Assert the policy check ``name``, showing the SLO report if it fails."""
    checks = SMOKE_POLICY.evaluate(burst.stats)
    (result,) = [c for c in checks if c.name == name]
    report = render_slo_report(
        SMOKE_CONFIG,
        burst.stats,
        checks,
        server_cache_hit_rate=burst.server_cache_hit_rate(),
    )
    assert result.ok, f"{result.format()}\n\n{report}"


def test_plan_fidelity(burst):
    planned = burst.planned["requests"] + burst.planned["warmup_requests"]
    assert burst.plan_fidelity, f"planned {planned} requests, issued {burst.issued}"


def test_zero_protocol_errors(burst):
    check(burst, "protocol error rate")


def test_cache_hits_under_skew(burst):
    check(burst, "cache hit rate (min)")


def test_bounded_queue_full_rate(burst):
    # Deadline misses are the other legitimate pushback; both stay rare.
    check(burst, "queue-full rate")
    check(burst, "deadline-miss rate")
