"""Lazily materialized bi-infinite periodic tree in flat int-keyed tables.

The tree is realized as a downward-growing ancestor spine plus
upward-growing subtrees.  A vertex's edges are numbered by slot: slot 0
leads to its parent and slots 1..g to its children.  Vertices are ids into
flat tables: ``heights``, ``parents`` (-1 while the spine bottom has no
parent yet) and one ``children`` dict keyed by the int ``vid * stride +
slot``, with ``stride`` one more than the largest g.  A vertex is created
only when an edge to it is first crossed, so untouched siblings never
exist; ids are stable and growth is monotone.  A hard cap on the number of
touched vertices turns runaway growth into an explicit
:class:`~pertree.errors.CapacityExceeded` instead of unbounded memory use.

The tree engine in :mod:`pertree.sim` reads these tables and appends new
children to them inline; it grows the spine through
:meth:`TreeArena.materialize_parent`, the only code that creates a spine
vertex.  The walk oracle in :mod:`pertree.oracle` shares no code with this
module.
"""

from __future__ import annotations

from .degrees import PeriodicDegreeSequence
from .errors import CapacityExceeded

DEFAULT_MAX_VERTICES = 500_000


class TreeArena:
    """Growable store of vertices for one periodic tree.

    The anchor (``root``) sits at height 0; its height residue within the
    period is a constructor parameter so experiments can root the tree at
    any degree class.  An arena is owned by a single simulation replica
    and never shared mutably.
    """

    def __init__(self, degree_seq: PeriodicDegreeSequence, root_residue: int = 0,
                 max_vertices: int = DEFAULT_MAX_VERTICES):
        self.degree_seq = degree_seq
        self.root_residue = root_residue % degree_seq.period
        self.max_vertices = max_vertices
        self._degrees, self._period = degree_seq.degrees, degree_seq.period
        self.stride = max(self._degrees) + 1
        self.heights: list[int] = []
        self.parents: list[int] = []
        self.children: dict[int, int] = {}   # vid * stride + slot -> child
        self.root = self._new_vertex(0, -1)
        self.spine_bottom = self.root

    def __len__(self) -> int:
        return len(self.heights)

    def children_count(self, vid: int) -> int:
        """Children slots of a vertex (g of its height residue)."""
        return self._degrees[(self.root_residue + self.heights[vid]) % self._period]

    def _new_vertex(self, height: int, parent: int) -> int:
        if len(self.heights) >= self.max_vertices:
            raise CapacityExceeded(f"vertex cap {self.max_vertices} reached")
        self.heights.append(height)
        self.parents.append(parent)
        return len(self.heights) - 1

    def materialize_children(self, vid: int) -> list[int]:
        """All children of ``vid`` in slot order, creating missing ones; idempotent."""
        return [self.neighbor(vid, s) for s in range(1, self.children_count(vid) + 1)]

    def materialize_parent(self, vid: int) -> int:
        """Return the parent of ``vid``, extending the spine if needed."""
        parent = self.parents[vid]
        if parent >= 0:
            return parent
        if vid != self.spine_bottom:
            raise ValueError(f"vertex {vid} has no parent and is not the spine bottom")
        parent = self._new_vertex(self.heights[vid] - 1, -1)
        # The old spine bottom takes the parent's first child slot.
        self.children[parent * self.stride + 1] = vid
        self.parents[vid] = parent
        self.spine_bottom = parent
        return parent

    def neighbor(self, vid: int, slot: int) -> int:
        """Incident edge endpoint by slot: 0 is the parent, 1..g the children.

        A child is created the first time its slot is touched.
        """
        if slot == 0:
            return self.materialize_parent(vid)
        if not 0 < slot <= self.children_count(vid):
            raise IndexError(f"vertex {vid} has no child slot {slot}")
        key = vid * self.stride + slot
        child = self.children.get(key)
        if child is None:
            child = self._new_vertex(self.heights[vid] + 1, vid)
            self.children[key] = child
        return child
