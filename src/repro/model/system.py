"""The distributed system: inputs -> decisions -> bin loads -> verdict.

:class:`DistributedSystem` assembles players, a communication pattern
and the bin capacity ``delta``, and executes the protocol on concrete
inputs.  Section 3's objects map one-to-one:

* ``Sigma_b`` -- the load of bin ``b`` (sum of inputs of the players
  that chose ``b``), exposed on :class:`Outcome`.
* the *winning* event -- ``Sigma_0 <= delta and Sigma_1 <= delta``.

Execution supports both a scalar path (one trial, arbitrary
communication pattern) and a vectorised batch path (many trials at
once, no-communication patterns only) used by the Monte Carlo engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.model.agents import DecisionAlgorithm, Player
from repro.model.communication import CommunicationPattern, NoCommunication
from repro.symbolic.rational import RationalLike, as_fraction

__all__ = ["DistributedSystem", "Outcome"]


@dataclass(frozen=True)
class Outcome:
    """The result of one protocol execution."""

    inputs: Tuple[float, ...]
    outputs: Tuple[int, ...]
    load_bin0: float
    load_bin1: float
    capacity: float

    @property
    def won(self) -> bool:
        """Whether neither bin overflowed."""
        return self.load_bin0 <= self.capacity and self.load_bin1 <= self.capacity

    @property
    def overflow(self) -> float:
        """Total excess above capacity (0 when the execution won)."""
        return max(self.load_bin0 - self.capacity, 0.0) + max(
            self.load_bin1 - self.capacity, 0.0
        )

    def __str__(self) -> str:
        verdict = "WIN" if self.won else "OVERFLOW"
        return (
            f"Outcome({verdict}: bin0={self.load_bin0:.4f}, "
            f"bin1={self.load_bin1:.4f}, capacity={self.capacity:.4f})"
        )


class DistributedSystem:
    """``n`` players, a communication pattern, and two bins of capacity
    ``delta``."""

    def __init__(
        self,
        algorithms: Sequence[DecisionAlgorithm],
        capacity: RationalLike,
        pattern: Optional[CommunicationPattern] = None,
    ):
        if not algorithms:
            raise ValueError("need at least one player")
        self._players: List[Player] = [
            Player(i, alg) for i, alg in enumerate(algorithms)
        ]
        self._capacity = as_fraction(capacity)
        if self._capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self._capacity}")
        self._pattern = pattern or NoCommunication(len(algorithms))
        if self._pattern.n != len(algorithms):
            raise ValueError(
                f"pattern is for {self._pattern.n} players, got "
                f"{len(algorithms)} algorithms"
            )
        needs_messages = not self._pattern.is_silent()
        locals_only = all(alg.is_local for alg in algorithms)
        if needs_messages and locals_only:
            # Permitted (the algorithms simply ignore what they could
            # see) but worth noting: the extra communication buys nothing.
            pass

    @property
    def players(self) -> Tuple[Player, ...]:
        return tuple(self._players)

    @property
    def n(self) -> int:
        return len(self._players)

    @property
    def capacity(self) -> Fraction:
        return self._capacity

    @property
    def pattern(self) -> CommunicationPattern:
        return self._pattern

    @property
    def algorithms(self) -> Tuple[DecisionAlgorithm, ...]:
        return tuple(p.algorithm for p in self._players)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, inputs: Sequence[float], rng: np.random.Generator
    ) -> Outcome:
        """Execute one trial on the given *inputs*.

        Each player receives its own input plus the inputs revealed by
        the communication pattern, and decides; the bins are then
        loaded and the verdict recorded.
        """
        if len(inputs) != self.n:
            raise ValueError(
                f"expected {self.n} inputs, got {len(inputs)}"
            )
        xs = [float(x) for x in inputs]
        outputs = []
        for player in self._players:
            observed = {
                j: xs[j] for j in self._pattern.observed_by(player.index)
            }
            outputs.append(
                player.algorithm.decide(xs[player.index], observed, rng)
            )
        load0 = sum(x for x, y in zip(xs, outputs) if y == 0)
        load1 = sum(x for x, y in zip(xs, outputs) if y == 1)
        return Outcome(
            inputs=tuple(xs),
            outputs=tuple(outputs),
            load_bin0=load0,
            load_bin1=load1,
            capacity=float(self._capacity),
        )

    def run_batch(
        self, inputs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorised win/lose verdicts for a ``(trials, n)`` input matrix.

        Requires every algorithm to be local (no-communication); raises
        otherwise.  Returns a boolean vector of length ``trials``.
        """
        if inputs.ndim != 2 or inputs.shape[1] != self.n:
            raise ValueError(
                f"expected a (trials, {self.n}) matrix, got {inputs.shape}"
            )
        if not all(alg.is_local for alg in self.algorithms):
            raise ValueError(
                "run_batch supports only local (no-communication) rules; "
                "use run() per trial for communicating algorithms"
            )
        outputs = np.empty(inputs.shape, dtype=np.int8)
        for i, player in enumerate(self._players):
            outputs[:, i] = player.algorithm.decide_batch(inputs[:, i], rng)
        cap = float(self._capacity)
        wins = np.empty(len(inputs), dtype=bool)
        # Each row's verdict depends on that row alone, so the loads are
        # summed block by block: a block's float temporaries stay at
        # 64 KiB, below glibc's default 128 KiB mmap threshold, so they
        # come from the heap instead of fresh page-faulted mappings on
        # every shard.
        step = max(1, 8192 // self.n)
        for start in range(0, len(inputs), step):
            rows = slice(start, start + step)
            block, chosen = inputs[rows], outputs[rows]
            # Each bin load is summed directly over its own players,
            # exactly as the scalar run() does -- deriving load0 as
            # total - load1 differs by an ulp for some inputs and can
            # flip the verdict right at the load0 <= cap boundary.
            load0 = np.where(chosen == 0, block, 0.0).sum(axis=1)
            load1 = np.where(chosen == 1, block, 0.0).sum(axis=1)
            wins[rows] = (load0 <= cap) & (load1 <= cap)
        return wins

    def __repr__(self) -> str:
        return (
            f"DistributedSystem(n={self.n}, capacity={self._capacity}, "
            f"pattern={self._pattern!r})"
        )
