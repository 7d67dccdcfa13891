"""Workspace set-up is pinned: persisted bytes and in-memory trees.

Two pins guard the columnar set-up path (the vectorised grid join and
STR on numpy columns):

* ``TestPersistedBytes`` — the sha256 of each of the seven page files
  and of ``manifest.json`` written by ``persist_indexes``, recorded from
  the object-at-a-time build these pins replaced;
* ``TestTreesNodeForNode`` — all five trees against the object-based
  STR packing kept below as the oracle (``list.sort`` on the centre
  keys, ``Rect.union_all`` MBRs, ``_entry_for_child`` parent entries),
  compared node for node: ids, levels, entry order, payloads, MBR and
  MND bits, root, height and the free list.

The instances cover two uniform seeds, the default page size with
three-level trees, and a tie-heavy instance: duplicate clients,
coincident facilities, clients and potentials on facilities (``dnn`` and
MND of exactly zero) and ``±0.0`` coordinates, where ``Rect.union_all``
and ``union_point`` keep the first of equal values.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct

import pytest

from repro.core.diskmode import persist_indexes
from repro.core.workspace import Workspace
from repro.datasets.generators import SpatialInstance, make_instance
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.entry import LeafEntry
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.rtree import RTree
from repro.storage.records import RNN_ENTRY, RTREE_ENTRY
from repro.storage.stats import IOStats

PERSISTED_FILES = (
    "r_c_m.pages",
    "r_p.pages",
    "r_c.pages",
    "r_f.pages",
    "r_c_n.pages",
    "file_c.pages",
    "file_p.pages",
    "manifest.json",
)


def _signed_zero(rng: random.Random, value: float) -> float:
    return rng.choice((0.0, -0.0)) if value == 0 else value


def tie_instance() -> SpatialInstance:
    """Integer-lattice points: duplicates, coincident facilities, clients
    and potentials on facilities, and zeros of both signs.  The domain
    sits inside the data, so ``data_bounds`` takes its x minimum (a
    zero) from the points."""
    rng = random.Random(5)

    def lattice(n: int) -> list[Point]:
        return [
            Point(
                _signed_zero(rng, float(rng.randint(0, 20))),
                _signed_zero(rng, float(rng.randint(-10, 10))),
            )
            for __ in range(n)
        ]

    facilities = lattice(30)
    facilities += facilities[:6]
    facilities += [Point(0.0, 5.0), Point(-0.0, 5.0), Point(0.0, -0.0)]
    # Whole leaves of clients on facilities along y = ±0 and y = 1: their
    # MBRs' y minimum is a zero of either sign, every entry's MND is
    # zero, and some MND terms are -0.0.
    row = [Point(float(x), y) for x in range(30, 40) for y in (0.0, -0.0, 1.0)]
    facilities += row
    on_row = [rng.choice(row) for __ in range(400)]
    clients = lattice(2500) + facilities[:10] + [Point(-0.0, -0.0)] * 40 + on_row
    potentials = lattice(60) + facilities[3:8]
    return SpatialInstance(
        "ties", clients, facilities, potentials, domain=Rect(1.0, 1.0, 19.0, 9.0)
    )


#: name -> (instance factory, page size)
INSTANCES = {
    "uniform-seed1": (lambda: make_instance(4000, 80, 60, rng=1), 1024),
    "uniform-seed2": (lambda: make_instance(4000, 80, 60, rng=2), 1024),
    "default-page": (lambda: make_instance(20000, 300, 200, rng=3), 4096),
    "ties": (tie_instance, 1024),
}

#: sha256 of every persisted file, recorded from the object-based build.
DIGESTS = {
    "default-page": {
        "r_c_m.pages": (
            "c86f7185b2e0b76b5aa0f7b09efb4fb5"
            "ac6b8015c99b7f4d440410140626f39a"
        ),
        "r_p.pages": (
            "9878a51cb95835e21926647e2ae883cf"
            "f41bd1f5d53f73043b4c84b924045682"
        ),
        "r_c.pages": (
            "16ccd1598c388d0004c8f92cd61194d9"
            "83da07f5a3114b8350d459274edb9f11"
        ),
        "r_f.pages": (
            "35153116c110554b1bedcd3459e304b8"
            "75400aca6345a036f402cc72585678cc"
        ),
        "r_c_n.pages": (
            "d6c57ff094497f97bbe497a188d7fbfe"
            "52c761729b6b8475e96c9594baff0ef5"
        ),
        "file_c.pages": (
            "69975ed452aa57c48cf16f2fca3d7ab7"
            "35db9a5459a289f69bc40b527f8b2702"
        ),
        "file_p.pages": (
            "1cd3cb650dbe87b8e1f97d4062682c57"
            "9ca6df16e039e0a2283785f92f15bc39"
        ),
        "manifest.json": (
            "9270f0d0f6fb27cd527820d19a17fd18"
            "2bead0bef562cc1c2ae00326a867e1f1"
        ),
    },
    "ties": {
        "r_c_m.pages": (
            "366040c7b28f8b08f6b5c04a40ce31f9"
            "344c896949bfdc8c1ae59353fb846bcd"
        ),
        "r_p.pages": (
            "cb57f770e3a2031a917dbd04f8bd866d"
            "4f7b8f40d29f2adc9ff20cdf2b7781c4"
        ),
        "r_c.pages": (
            "abbee1b8831f1480ef60e4bf9638d686"
            "7e50196dc3e672091f0252518ff8817a"
        ),
        "r_f.pages": (
            "331bc339e71f97f20948565e2eab6416"
            "570ee257a226db37bd1b4e9ab763d2fc"
        ),
        "r_c_n.pages": (
            "859a05f998697bd72e05c2a23d4c566e"
            "1d7bf2c549704fe54033a1ff995e6b2d"
        ),
        "file_c.pages": (
            "24e78b46bc91bd195ce49970a7432cdb"
            "9ab4e727bdc91dfcbca576c8a671a4a8"
        ),
        "file_p.pages": (
            "86de9e92ff57d2795408f4a59c937f9d"
            "fcaf78799d480ef842f778bd78444c3d"
        ),
        "manifest.json": (
            "6ca3564b6e6c8ac21218dd0dbbcb7607"
            "51b906e145901f84e9e970c789005a03"
        ),
    },
    "uniform-seed1": {
        "r_c_m.pages": (
            "e1ffdf3f1fbf6e2246e40094775c0ab7"
            "e6a5899d1a572e332d2591cae7e4b334"
        ),
        "r_p.pages": (
            "2ee2ea7a8a2ba678d7e265f89f1d3aaa"
            "362c91ca44461cad91d54443a01d7c9b"
        ),
        "r_c.pages": (
            "2823a3fba25ede03fa2c545381eb1559"
            "c6d8550e46210fbd1c8a0ce991bf5736"
        ),
        "r_f.pages": (
            "a8598cdd11513961bc47bb07c01d5cc7"
            "8e749841f5eaba4823f3667a5b1bab9c"
        ),
        "r_c_n.pages": (
            "95117b000e0f3d608d53918c1a7ca94c"
            "b3d6c29b1596c220bbe27f54dc16de5c"
        ),
        "file_c.pages": (
            "68846044981eabbe8b6e1bb3b9bcb394"
            "eacecb703510ecd4afa5cfc9791335d1"
        ),
        "file_p.pages": (
            "8f2528c356bba741c1f61e718fb7fcdc"
            "728612678e622c4b627a92a86d212b40"
        ),
        "manifest.json": (
            "5f508a0a61497d8335b0295ef0901251"
            "21a42983c2de9d60d363cb6d3855effa"
        ),
    },
    "uniform-seed2": {
        "r_c_m.pages": (
            "a2b5b1b29c5a6cc191c5f7ba95d3fbf8"
            "b1eab779992d505102f845a47dcc7054"
        ),
        "r_p.pages": (
            "668e4dcbd1dfe2b39390a3454a9b3fce"
            "0629d22aa117e782f5a3f1af455689bb"
        ),
        "r_c.pages": (
            "eb51ff89f6cc0ccfb5764fa910febe53"
            "ca66cfa4d9297ed3de5b83705988f12b"
        ),
        "r_f.pages": (
            "509c289a5188c6c54ec67a262965523d"
            "e9b6daf4d52e54c75b4872ccf38ab268"
        ),
        "r_c_n.pages": (
            "e6d606d2131998a3410d8b2e063add39"
            "b76213a74ad3adddfa1fab3df15a60aa"
        ),
        "file_c.pages": (
            "2c292f5693b0dca44ac51e96df494846"
            "3c1dc0b9842b4c806c605962af964413"
        ),
        "file_p.pages": (
            "2999bec73ad9d03414a07140b49bfec7"
            "34dda906e8e5b247e8e8e5382af33698"
        ),
        "manifest.json": (
            "5f508a0a61497d8335b0295ef0901251"
            "21a42983c2de9d60d363cb6d3855effa"
        ),
    },
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def workspace(request):
    make, page_size = INSTANCES[request.param]
    return request.param, Workspace(make(), page_size=page_size)


def persisted_digests(ws: Workspace, directory) -> dict[str, str]:
    persist_indexes(ws, directory)
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in PERSISTED_FILES
    }


class TestPersistedBytes:
    def test_every_file_matches_its_pin(self, workspace, tmp_path):
        name, ws = workspace
        assert persisted_digests(ws, tmp_path) == DIGESTS[name]


# ----------------------------------------------------------------------
# The oracle: object-based STR, as bulk loading worked before columns
# ----------------------------------------------------------------------
def _oracle_tile(entries: list, per_node: int) -> list[list]:
    n = len(entries)
    num_nodes = math.ceil(n / per_node)
    num_slabs = math.ceil(math.sqrt(num_nodes))
    per_slab = num_slabs * per_node
    entries.sort(key=lambda e: (e.mbr.xmin + e.mbr.xmax))
    runs: list[list] = []
    for s in range(0, n, per_slab):
        slab = entries[s : s + per_slab]
        slab.sort(key=lambda e: (e.mbr.ymin + e.mbr.ymax))
        for r in range(0, len(slab), per_node):
            runs.append(slab[r : r + per_node])
    return runs


def oracle_bulk_load(tree: RTree, items: list, fill: float = 0.7) -> RTree:
    leaf_cap = max(2, min(tree.max_leaf, int(tree.max_leaf * fill)))
    branch_cap = max(2, min(tree.max_branch, int(tree.max_branch * fill)))
    entries = [LeafEntry(mbr, payload) for mbr, payload in items]
    if not entries:
        return tree
    level = 0
    if len(entries) <= tree.max_leaf:
        tree.node(tree.root_id).entries = entries
        tree.height = 1
        tree.num_entries = len(items)
        return tree
    nodes = []
    for run in _oracle_tile(entries, leaf_cap):
        node = tree._alloc_node(0)
        node.entries = run
        nodes.append(node)
    while len(nodes) > 1:
        level += 1
        parent_entries = [tree._entry_for_child(node) for node in nodes]
        if len(parent_entries) <= tree.max_branch:
            root = tree._alloc_node(level)
            root.entries = parent_entries
            nodes = [root]
            break
        nodes = []
        for run in _oracle_tile(parent_entries, branch_cap):
            node = tree._alloc_node(level)
            node.entries = run
            nodes.append(node)
    old_root = tree.root_id
    tree.root_id = nodes[0].node_id
    tree._free_node(old_root)
    tree.height = nodes[0].level + 1
    tree.num_entries = len(items)
    return tree


def oracle_trees(ws: Workspace) -> dict[str, RTree]:
    def point_items(records):
        return [(Rect(r.x, r.y, r.x, r.y), r) for r in records]

    def tree(name, layout=RTREE_ENTRY, branch=RTREE_ENTRY):
        return RTree(
            name,
            IOStats(),
            leaf_layout=layout,
            branch_layout=branch,
            page_size=ws.page_size,
        )

    mnd = MNDTree("R_C^m", IOStats(), radius_of=lambda c: c.dnn, page_size=ws.page_size)
    squares = [(Circle(Point(c.x, c.y), c.dnn).mbr(), c) for c in ws.clients]
    return {
        "r_c": oracle_bulk_load(tree("R_C"), point_items(ws.clients)),
        "r_f": oracle_bulk_load(tree("R_F"), point_items(ws.facilities)),
        "r_p": oracle_bulk_load(tree("R_P"), point_items(ws.potentials)),
        "rnn_tree": oracle_bulk_load(tree("R_C^n", RNN_ENTRY, RNN_ENTRY), squares),
        "mnd_tree": oracle_bulk_load(mnd, point_items(ws.clients)),
    }


def _bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def snapshot(tree: RTree) -> tuple:
    """Everything structural about a tree, floats as their bits and
    payloads by identity."""
    pages = []
    for node in tree._pager._pages:
        if node is None:
            pages.append(None)
            continue
        entries = []
        for e in node.entries:
            if node.is_leaf:
                entries.append((_bits(*e.mbr), id(e.payload)))
            else:
                mnd = None if e.mnd is None else _bits(e.mnd)
                entries.append((_bits(*e.mbr), e.child_id, mnd))
        pages.append((node.node_id, node.level, tuple(entries)))
    return (
        tree.root_id,
        tree.height,
        tree.num_entries,
        tuple(tree._free_pages),
        tuple(pages),
    )


class TestTreesNodeForNode:
    @pytest.mark.parametrize("attr", ["r_c", "r_f", "r_p", "rnn_tree", "mnd_tree"])
    def test_tree_matches_object_str(self, workspace, attr):
        __, ws = workspace
        expected = oracle_trees(ws)[attr]
        assert snapshot(getattr(ws, attr)) == snapshot(expected)

    def test_tie_instance_exercises_signed_zeros(self):
        """The tie instance really holds both zeros, zero dnn values and
        multi-level trees — otherwise its pins would prove little."""
        ws = Workspace(tie_instance(), page_size=1024)
        xs = [c.x for c in ws.clients]
        assert any(math.copysign(1, x) < 0 for x in xs if x == 0)
        assert any(math.copysign(1, x) > 0 for x in xs if x == 0)
        assert sum(c.dnn == 0.0 for c in ws.clients) > 100
        assert ws.mnd_tree.height >= 3
        assert math.copysign(1, ws.data_bounds.xmin) < 0
