"""Join pruning profiler.

Section VII's cost analysis hinges on the *pruning power* ``w`` — the
fraction of node pairs the NFC/MND joins never visit.  This module
measures it directly, per tree level, by running the joins' own
level-synchronous descent (:mod:`repro.rtree.descent`) with a private
:class:`~repro.storage.stats.IOStats`, so the workspace's I/O counters
do not move, and taking each level's counts from it:

* how many node pairs exist at each level combination,
* how many survive the intersection predicate (NFC) or the MND test,
* the resulting per-level and total pruning powers.

The profile quantifies the paper's "the area covered by the MND region
is very similar to that covered by the MBR of the NFCs": the two
methods' survivor counts track each other closely at every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.workspace import Workspace
from repro.rtree.descent import join_level, join_roots
from repro.storage.stats import IOStats


@dataclass
class LevelProfile:
    """Pair statistics for one (P-level, C-level) combination."""

    level_p: int
    level_c: int
    considered: int = 0
    survived: int = 0
    #: Page reads the real join performs for the survivors at this level
    #: (2 per branch-branch survivor, 1 when one side is carried down).
    reads: int = 0

    @property
    def pruning_power(self) -> float:
        if self.considered == 0:
            return 0.0
        return 1.0 - self.survived / self.considered


@dataclass
class JoinProfile:
    """A full profile of one join method's traversal."""

    method: str
    levels: dict[tuple[int, int], LevelProfile] = field(default_factory=dict)

    def _level(self, level_p: int, level_c: int) -> LevelProfile:
        key = (level_p, level_c)
        if key not in self.levels:
            self.levels[key] = LevelProfile(level_p, level_c)
        return self.levels[key]

    @property
    def considered(self) -> int:
        return sum(lv.considered for lv in self.levels.values())

    @property
    def survived(self) -> int:
        return sum(lv.survived for lv in self.levels.values())

    @property
    def total_reads(self) -> int:
        """Page reads the real join performs: both roots plus the
        survivor-triggered child reads."""
        return 2 + sum(lv.reads for lv in self.levels.values())

    @property
    def pruning_power(self) -> float:
        if self.considered == 0:
            return 0.0
        return 1.0 - self.survived / self.considered

    def format(self) -> str:
        lines = [
            f"{self.method} join profile: {self.survived}/{self.considered} "
            f"node pairs survive (w = {self.pruning_power:.3f})"
        ]
        for key in sorted(self.levels):
            lv = self.levels[key]
            lines.append(
                f"  P-level {lv.level_p} x C-level {lv.level_c}: "
                f"{lv.survived}/{lv.considered} survive "
                f"(w = {lv.pruning_power:.3f})"
            )
        return "\n".join(lines)


def _profile_join(ws: Workspace, tree_c, method: str) -> JoinProfile:
    """Run a join's descent level by level, keeping each level's pairs
    tested, pairs surviving and reads charged."""
    profile = JoinProfile(method)
    tree_p = ws.r_p
    if tree_p.num_entries == 0 or tree_c.num_entries == 0:
        return profile
    stats = IOStats()
    rows = join_roots(tree_p, tree_c, stats, mnd=method == "MND")
    while len(rows) and not rows.at_leaves:
        before = stats.total_reads
        rows, considered = join_level(tree_p, tree_c, rows, ws.leaf_cache, stats)
        level = profile._level(rows.level_p, rows.level_c)
        level.considered += considered
        level.survived += len(rows)
        level.reads += stats.total_reads - before
    return profile


def profile_nfc_join(ws: Workspace) -> JoinProfile:
    """Pruning profile of the NFC join (``R_P`` x ``R_C^n``)."""
    return _profile_join(ws, ws.rnn_tree, "NFC")


def profile_mnd_join(ws: Workspace) -> JoinProfile:
    """Pruning profile of the MND join (``R_P`` x ``R_C^m``)."""
    return _profile_join(ws, ws.mnd_tree, "MND")
