"""Fleet stepping: one :meth:`Platform.step` per node.

Each platform already batches its steady sub-slices through its own
:class:`~repro.hardware.engine.VectorEngine`.  A column pass across
nodes on top of that was measured and did not pay for itself (DESIGN.md
§11), so the fleet steps node by node.
"""

from __future__ import annotations

from typing import List

__all__ = ["FleetEngine"]


class FleetEngine:
    """Synchronized stepping for a fixed roster of fleet nodes."""

    def __init__(self, nodes) -> None:
        self.nodes = list(nodes)
        #: Nodes stepped by a cross-node column pass: always 0, since
        #: there is none.  ``perfbench/probes.py`` still reads it.
        self.last_batched = 0

    def step(self) -> List[object]:
        """Advance every node one interval; one sample per node, in order."""
        return [node.platform.step() for node in self.nodes]
