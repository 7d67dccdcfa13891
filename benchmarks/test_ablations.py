"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but experiments that isolate *why* the MND
method works:

* **MND-region tightness** — how much pruning power is lost by
  replacing the RNN-tree's per-client NFC MBRs with one MND value per
  node (the paper argues "the area covered by the MND region is very
  similar to that covered by the MBR of the NFCs").
* **Bulk-loaded vs insert-built indexes** — answers are identical and
  the comparative I/O ordering is index-construction independent.
* **R* vs Guttman insertion** — the client index's directory quality on
  clustered data under either insertion policy.
* **Road-network variant** — pruned network expansion answers exactly
  like the full per-candidate Dijkstra.

Every I/O count here is the paper's: page reads against a cold disk.
"""

import pytest

from repro.core import METHODS, make_selector
from repro.core.workspace import Workspace
from repro.experiments.config import ExperimentConfig
from benchmarks.conftest import RESULTS_DIR


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(n_c=20_000, n_f=1_000, n_p=1_000)


def test_ablation_mnd_region_tightness(benchmark, config):
    """One MND value per node vs per-client NFC MBRs: the I/O paid by
    the MND join stays within a small factor of the NFC join's."""
    ws = Workspace(config.instance())
    nfc = make_selector(ws, "NFC")
    mnd = make_selector(ws, "MND")
    nfc.prepare()
    mnd.prepare()

    def run():
        return nfc.select(), mnd.select()

    r_n, r_m = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = r_m.io_total / r_n.io_total
    lines = [
        "MND-region tightness ablation (n_c=20K, n_f=1K, n_p=1K)",
        f"  NFC join I/O (per-client NFC MBRs): {r_n.io_total}",
        f"  MND join I/O (one value per node):  {r_m.io_total}",
        f"  overhead factor: {overhead:.3f}",
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_mnd_tightness.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))
    assert 0.5 <= overhead <= 2.0


def test_ablation_bulk_vs_insert_built(benchmark):
    """Same answers and comparative ordering with insert-built indexes."""
    config = ExperimentConfig(n_c=5_000, n_f=250, n_p=250)

    def run():
        bulk = Workspace(config.instance(), use_bulk_load=True)
        inc = Workspace(config.instance(), use_bulk_load=False)
        out = {}
        for name in sorted(METHODS):
            out[name] = (
                make_selector(bulk, name).select(),
                make_selector(inc, name).select(),
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, (r_bulk, r_inc) in results.items():
        assert r_bulk.location.sid == r_inc.location.sid
        assert r_bulk.dr == pytest.approx(r_inc.dr, abs=1e-6)
    for cheap in ("NFC", "MND"):
        assert results[cheap][1].io_total < results["QVC"][1].io_total


def test_ablation_rstar_vs_guttman(benchmark):
    """Index-structure ablation: the paper says "any hierarchical
    spatial index could be used" — quantify it by building the client
    index with Guttman vs R* insertion and comparing point-query I/O
    (directory quality) on clustered data, where insertion policy
    matters most."""
    import random

    from repro.geometry.point import Point
    from repro.geometry.rect import Rect
    from repro.rtree.rstar import RStarTree
    from repro.rtree.rtree import RTree
    from repro.rtree.window import window_query
    from repro.storage.stats import IOStats

    rng = random.Random(90)
    pts = []
    for __ in range(60):
        cx, cy = rng.uniform(0, 900), rng.uniform(0, 900)
        pts.extend(Point(rng.gauss(cx, 15), rng.gauss(cy, 15)) for __ in range(60))

    def run():
        g_stats, r_stats = IOStats(), IOStats()
        guttman = RTree("g", g_stats, max_leaf_entries=16, max_branch_entries=16)
        rstar = RStarTree("r", r_stats, max_leaf_entries=16, max_branch_entries=16)
        for i, p in enumerate(pts):
            guttman.insert(Rect.from_point(p), i)
            rstar.insert(Rect.from_point(p), i)
        g_stats.reset()
        r_stats.reset()
        for q in pts[::5]:
            list(window_query(guttman, Rect.from_point(q)))
            list(window_query(rstar, Rect.from_point(q)))
        return g_stats.total_reads, r_stats.total_reads

    g_io, r_io = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "index-structure ablation (clustered data, point queries)",
        f"  Guttman R-tree: {g_io} node reads",
        f"  R*-tree:        {r_io} node reads",
        f"  R*/Guttman:     {r_io / g_io:.3f}",
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_rstar.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))
    # R*'s directory must never be materially worse, typically better.
    assert r_io <= g_io * 1.05


def test_ablation_network_variant(benchmark):
    """The road-network variant: pruned expansion answers exactly like
    the full per-candidate Dijkstra at a fraction of the settled nodes,
    and the facility trend of Fig. 11 carries over to networks."""
    import random

    from repro.network import NetworkMindistQuery, delaunay_network

    def run():
        net = delaunay_network(800, rng=17)
        rng = random.Random(18)
        nodes = net.nodes()
        clients = [rng.choice(nodes) for __ in range(400)]
        candidates = rng.sample(nodes, 20)
        out = {}
        for n_f in (10, 80):
            facilities = rng.sample(nodes, n_f)
            query = NetworkMindistQuery(net, clients, facilities, candidates)
            full = query.select(pruned=False)
            pruned = query.select(pruned=True)
            out[n_f] = (full, pruned)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["road-network variant (800-node Delaunay, 400 clients, 20 candidates)"]
    for n_f, (full, pruned) in results.items():
        assert pruned.candidate_node == full.candidate_node
        assert abs(pruned.dr - full.dr) < 1e-9
        lines.append(
            f"  |F|={n_f:>3}: settled nodes full={full.settled_nodes:>6} "
            f"pruned={pruned.settled_nodes:>6} "
            f"({pruned.settled_nodes / full.settled_nodes:.1%})"
        )
    (RESULTS_DIR / "ablation_network.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))
    # More facilities -> shorter NFDs -> stronger pruning (Fig. 11's
    # trend on the network).
    assert results[80][1].settled_nodes < results[10][1].settled_nodes
