"""Weighted de Bruijn graphs over shingle multisets and unique decoding.

Nodes are the length l-1 prefixes and suffixes of the shingles; each shingle
is one directed edge weighted by its multiplicity.  The all-delimiter gram
anchors both ends of any decodable multiset, so decoding is a closed Eulerian
walk through that node.
"""

from __future__ import annotations

from .alphabet import DEFAULT_DELIMITER
from .decider import TokenDecider
from .errors import (
    InconsistentMultisetError,
    InvalidParameterError,
    InvalidShingleError,
    NotUniqueError,
)
from .shingles import ShingleMultiset


class DeBruijnGraph:
    """Mutable multigraph keyed by edge label; single-owner, not thread-safe."""

    def __init__(self, l: int, delimiter: str = DEFAULT_DELIMITER):
        if l < 2:
            raise InvalidParameterError(f"shingle length l must be >= 2, got {l}")
        self.l = l
        self.delimiter = delimiter
        # label -> [source, target, weight]
        self.edges: dict[str, list] = {}

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
        entry = self.edges.get(label)
        if entry is None:
            self.edges[label] = [label[:k], label[len(label) - k :], weight]
        else:
            entry[2] += weight

    @property
    def nodes(self) -> set[str]:
        out = set()
        for src, dst, _ in self.edges.values():
            out.add(src)
            out.add(dst)
        return out

    @property
    def start_node(self) -> str | None:
        anchor = self.delimiter * (self.l - 1)
        return anchor if anchor in self.nodes else None

    end_node = start_node

    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges.values())

    def multiset(self) -> ShingleMultiset:
        return ShingleMultiset({label: w for label, (_, _, w) in self.edges.items()}, base_len=self.l)

    def edge(self, label: str) -> tuple[str, str, int]:
        src, dst, w = self.edges[label]
        return src, dst, w

    def eulerian_labels(self) -> list[str]:
        """Some closed Eulerian walk from the all-delimiter node, as labels."""
        start = self.delimiter * (self.l - 1)
        out: dict[str, list[tuple[str, str]]] = {}
        for label, (src, dst, w) in self.edges.items():
            out.setdefault(src, []).extend([(dst, label)] * w)
        if start not in out:
            raise InconsistentMultisetError("no delimiter-anchored start shingle present")
        total = self.total_weight()
        # Hierholzer with an explicit stack; entry labels recorded per node
        stack: list[tuple[str, str | None]] = [(start, None)]
        trail: list[str] = []
        while stack:
            node, via = stack[-1]
            avail = out.get(node)
            if avail:
                dst, label = avail.pop()
                stack.append((dst, label))
            else:
                stack.pop()
                if via is not None:
                    trail.append(via)
        trail.reverse()
        if len(trail) != total:
            raise InconsistentMultisetError("shingle multiset is not connected into one walk")
        node = start
        for label in trail:
            src, dst, _ = self.edges[label]
            if src != node:
                raise InconsistentMultisetError("shingles do not chain into a walk")
            node = dst
        if node != start:
            raise InconsistentMultisetError("walk does not close at the delimiter node")
        return trail

    def decode_unique(self) -> str:
        """The single word consistent with this graph.

        An Eulerian walk is found in linear time and then re-checked with the
        streaming decider; a rejected walk means a second decoding exists.
        """
        trail = self.eulerian_labels()
        if not TokenDecider(self.l, self.delimiter).push_shingles(trail).ok:
            raise NotUniqueError("multiset admits more than one decoding")
        k = self.l - 1
        folded = self.delimiter * k + "".join(label[k:] for label in trail)
        word = folded[k:-k] if len(folded) > 2 * k else ""
        if self.delimiter in word:
            raise InconsistentMultisetError("walk does not assemble into a single word")
        return word

    def to_text(self) -> str:
        """Debug adjacency dump: `source TAB target TAB weight TAB label` lines."""
        lines = [
            f"{src}\t{dst}\t{w}\t{label}"
            for label, (src, dst, w) in sorted(self.edges.items())
        ]
        return "".join(line + "\n" for line in lines)
