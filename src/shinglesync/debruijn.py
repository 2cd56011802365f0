"""Weighted de Bruijn graphs over shingle multisets and unique decoding.

Nodes are the length l-1 prefixes and suffixes of the shingles; each shingle
is one directed edge weighted by its multiplicity.  The all-delimiter gram
anchors both ends of any decodable multiset, so decoding is a closed Eulerian
walk through that node.

Each node gram is interned once, as an edge is added, into a dense integer
id, and the edges are flat columns over those ids: the walk, its checks and
the decider run on integers and never slice a gram again.
"""

from __future__ import annotations

from collections import Counter

from .alphabet import DEFAULT_DELIMITER
from .decider import _Core, feed_labels
from .errors import (
    InconsistentMultisetError,
    InvalidParameterError,
    InvalidShingleError,
    NotUniqueError,
)
from .shingles import ShingleMultiset


class DeBruijnGraph:
    """Multigraph over interned node grams; single-owner, not thread-safe.

    Edge i carries `labels[i]` from node `sources[i]` to node `targets[i]`
    with weight `weights[i]`.  A label added again is a parallel edge with
    the same label, which every method reads as one edge of the summed
    weight.
    """

    def __init__(self, l: int, delimiter: str = DEFAULT_DELIMITER):
        if l < 2:
            raise InvalidParameterError(f"shingle length l must be >= 2, got {l}")
        self.l = l
        self.delimiter = delimiter
        # node gram -> node id, in order of first appearance
        self._ids: dict[str, int] = {}
        self.labels: list[str] = []
        self.sources: list[int] = []
        self.targets: list[int] = []
        self.weights: list[int] = []

    @classmethod
    def build(
        cls, ms: ShingleMultiset, l: int, delimiter: str = DEFAULT_DELIMITER
    ) -> "DeBruijnGraph":
        g = cls(l, delimiter)
        for label, mult in ms.entries.items():
            g.add_edge(label, mult)
        return g

    def add_edge(self, label: str, weight: int = 1) -> None:
        if len(label) < self.l:
            raise InvalidShingleError(f"shingle {label!r} shorter than l={self.l}")
        if weight < 1:
            raise InvalidParameterError("edge weight must be >= 1")
        k = self.l - 1
        ids = self._ids
        self.sources.append(ids.setdefault(label[:k], len(ids)))
        self.targets.append(ids.setdefault(label[len(label) - k :], len(ids)))
        self.labels.append(label)
        self.weights.append(weight)

    @property
    def nodes(self) -> set[str]:
        return set(self._ids)

    @property
    def start_node(self) -> str | None:
        anchor = self.delimiter * (self.l - 1)
        return anchor if anchor in self._ids else None

    end_node = start_node

    def total_weight(self) -> int:
        return sum(self.weights)

    def _weights(self) -> Counter:
        """Each distinct label's summed weight, in order of first addition."""
        out: Counter = Counter()
        for label, w in zip(self.labels, self.weights):
            out[label] += w
        return out

    def multiset(self) -> ShingleMultiset:
        return ShingleMultiset(self._weights(), base_len=self.l)

    def edge(self, label: str) -> tuple[str, str, int]:
        w = self._weights()[label]
        if not w:
            raise KeyError(label)
        k = self.l - 1
        return label[:k], label[len(label) - k :], w

    def _trail(self) -> list[int]:
        """Some closed Eulerian walk from the all-delimiter node, as edge
        indices: Hierholzer's, each node's edges taken last added first."""
        start = self._ids.get(self.delimiter * (self.l - 1))
        sources, targets = self.sources, self.targets
        # per node, the edge it leaves by next, and per edge the one after
        # it, -1 ending each list; `left` counts each edge's unwalked weight
        head = [-1] * len(self._ids)
        after = []
        for e, src in enumerate(sources):
            after.append(head[src])
            head[src] = e
        if start is None or head[start] < 0:
            raise InconsistentMultisetError("no delimiter-anchored start shingle present")
        left = self.weights[:]
        # the edges walked into each node on the stack, -1 for the start
        stack = [-1]
        trail: list[int] = []
        while stack:
            via = stack[-1]
            node = start if via < 0 else targets[via]
            e = head[node]
            if e >= 0:
                left[e] -= 1
                if not left[e]:
                    head[node] = after[e]
                stack.append(e)
            else:
                stack.pop()
                if via >= 0:
                    trail.append(via)
        trail.reverse()
        if len(trail) != self.total_weight():
            raise InconsistentMultisetError("shingle multiset is not connected into one walk")
        node = start
        for e in trail:
            if sources[e] != node:
                raise InconsistentMultisetError("shingles do not chain into a walk")
            node = targets[e]
        if node != start:
            raise InconsistentMultisetError("walk does not close at the delimiter node")
        return trail

    def eulerian_labels(self) -> list[str]:
        """Some closed Eulerian walk from the all-delimiter node, as labels."""
        return [self.labels[e] for e in self._trail()]

    def decode_unique(self) -> str:
        """The single word consistent with this graph.

        An Eulerian walk is found in linear time and then re-checked with the
        streaming decider over the graph's node ids; a rejected walk means a
        second decoding exists.
        """
        trail = self._trail()
        labels = [self.labels[e] for e in trail]
        core = _Core(len(self._ids))
        walk = feed_labels(core, {}, [self.sources[e] for e in trail], [self.targets[e] for e in trail], labels)
        if not walk.ok:
            raise NotUniqueError("multiset admits more than one decoding")
        k = self.l - 1
        folded = self.delimiter * k + "".join(label[k:] for label in labels)
        word = folded[k:-k] if len(folded) > 2 * k else ""
        if self.delimiter in word:
            raise InconsistentMultisetError("walk does not assemble into a single word")
        return word

    def to_text(self) -> str:
        """Debug adjacency dump: `source TAB target TAB weight TAB label` lines."""
        k = self.l - 1
        lines = [
            f"{label[:k]}\t{label[len(label) - k :]}\t{w}\t{label}"
            for label, w in sorted(self._weights().items())
        ]
        return "".join(line + "\n" for line in lines)
