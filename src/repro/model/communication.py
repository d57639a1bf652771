"""Communication patterns (Section 3.1 model, Section 6 outlook).

The paper's general model lets a player's algorithm depend on the
inputs of other players that are "known" to it; which inputs are known
is determined by a *communication pattern*.  The paper then settles the
pattern with **no** communication.  This module provides the pattern
abstraction so the framework matches the general model:

* :class:`NoCommunication` -- the paper's case: nobody sees anything.
* :class:`FullInformation` -- everybody sees everybody (the centralized
  baseline lives here: with full information the players can jointly
  implement optimal packing).
* :class:`GraphPattern` -- visibility along the edges of an arbitrary
  directed graph (an edge list, or any graph object with ``.edges()``),
  which covers the one-way/two-way three-player patterns of
  Papadimitriou and Yannakakis [11].

Patterns are static: who-sees-whom does not depend on the inputs.  That
matches the model in the paper, where the communication pattern is part
of the problem statement, not of the algorithm.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "CommunicationPattern",
    "FullInformation",
    "GraphPattern",
    "NoCommunication",
]


class CommunicationPattern(ABC):
    """Determines, for each player, which other players' inputs it sees."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one player, got n={n}")
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    @abstractmethod
    def observed_by(self, player: int) -> FrozenSet[int]:
        """Indices of the players whose inputs *player* sees (excluding
        itself)."""

    def _check_player(self, player: int) -> None:
        if not 0 <= player < self._n:
            raise ValueError(
                f"player index {player} out of range for n={self._n}"
            )

    def is_silent(self) -> bool:
        """Whether no player observes anything (the paper's case)."""
        return all(not self.observed_by(i) for i in range(self._n))

    def total_messages(self) -> int:
        """Number of (sender, receiver) pairs -- the communication cost
        measure of [11]."""
        return sum(len(self.observed_by(i)) for i in range(self._n))

    def visibility_table(self) -> Dict[int, FrozenSet[int]]:
        """The full who-sees-whom map."""
        return {i: self.observed_by(i) for i in range(self._n)}


class NoCommunication(CommunicationPattern):
    """The paper's pattern: every player decides from its own input only."""

    def observed_by(self, player: int) -> FrozenSet[int]:
        self._check_player(player)
        return frozenset()

    def __repr__(self) -> str:
        return f"NoCommunication(n={self._n})"


class FullInformation(CommunicationPattern):
    """Every player sees every other player's input."""

    def observed_by(self, player: int) -> FrozenSet[int]:
        self._check_player(player)
        return frozenset(i for i in range(self._n) if i != player)

    def __repr__(self) -> str:
        return f"FullInformation(n={self._n})"


class GraphPattern(CommunicationPattern):
    """Visibility along a directed graph: edge ``u -> v`` means *v* sees
    ``x_u``.

    Accepts any iterable of ``(sender, receiver)`` pairs over the
    player indices ``0 .. n-1``, or a graph object whose ``.edges()``
    method yields them (a graph library's ``DiGraph``, say).  Self-loops
    are rejected (a player always sees its own input; encoding that as
    an edge would double-count).
    """

    def __init__(self, n: int, edges) -> None:
        super().__init__(n)
        pairs = edges.edges() if hasattr(edges, "edges") else edges
        self._edges: FrozenSet[Tuple[int, int]] = frozenset(
            (sender, receiver) for sender, receiver in pairs
        )
        for sender, receiver in self._edges:
            if not (0 <= sender < n and 0 <= receiver < n):
                raise ValueError(
                    f"edge ({sender}, {receiver}) out of range for n={n}"
                )
            if sender == receiver:
                raise ValueError(
                    f"self-loop ({sender}, {sender}) is not a message"
                )

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The ``(sender, receiver)`` pairs, immutable."""
        return self._edges

    def observed_by(self, player: int) -> FrozenSet[int]:
        self._check_player(player)
        return frozenset(s for s, r in self._edges if r == player)

    @classmethod
    def chain(cls, n: int) -> "GraphPattern":
        """The one-way chain ``P1 -> P2 -> ... -> Pn`` of [11]."""
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int, center: int = 0) -> "GraphPattern":
        """Everyone reports to *center* (who alone has full information)."""
        return cls(
            n, [(i, center) for i in range(n) if i != center]
        )

    def __repr__(self) -> str:
        return (
            f"GraphPattern(n={self._n}, "
            f"edges={sorted(self._edges)})"
        )
