"""Periodic children-count sequences defining the tree."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PeriodicDegreeSequence:
    """Children counts g(0), ..., g(k-1), repeated with period k.

    A vertex at height h has ``g(h mod k)`` children and one parent, so its
    graph degree is ``g(h mod k) + 1``.
    """

    degrees: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.degrees)
        try:
            degs = tuple(int(d) for d in raw)
        except (TypeError, ValueError, OverflowError):   # not a number, NaN or infinity
            degs = None
        if degs != raw:
            raise ValueError(f"children counts must be integers, got {raw!r}")
        if not degs:
            raise ValueError("degree sequence must be nonempty")
        if any(d < 1 for d in degs):
            raise ValueError("all children counts must be >= 1")
        object.__setattr__(self, "degrees", degs)

    @property
    def period(self) -> int:
        return len(self.degrees)

    @classmethod
    def parse(cls, text: str) -> "PeriodicDegreeSequence":
        """Parse a comma-separated string such as ``"1,1000"`` or ``"2,3,4"``."""
        try:
            degs = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad degree string {text!r}") from exc
        return cls(degs)

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.degrees)


def degree_at(seq: PeriodicDegreeSequence, height: int) -> int:
    """Children count at a given height; heights may be negative."""
    return seq.degrees[height % seq.period]
