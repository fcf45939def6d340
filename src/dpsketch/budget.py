"""Privacy budget ledger for composed sub-mechanisms.

Shares are stored as exact fractions of the top-level budget so that the
recorded total of s sub-mechanisms at eps/s each is exactly eps, with no
floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class BudgetEntry:
    name: str
    epsilon_fraction: Fraction
    xi_fraction: Fraction


class MechanismBudget:
    """Tracks how a top-level (epsilon, xi) budget splits across sub-mechanisms."""

    def __init__(self, total_epsilon: float, total_xi: float = 0.0) -> None:
        if total_epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {total_epsilon}")
        self.total_epsilon = float(total_epsilon)
        self.total_xi = float(total_xi)
        self._entries: dict[str, BudgetEntry] = {}

    def allocate(
        self,
        name: str,
        epsilon_fraction: Fraction | int,
        xi_fraction: Fraction | int = Fraction(0),
    ) -> BudgetEntry:
        if name in self._entries:
            raise ValueError(f"sub-mechanism {name!r} already recorded")
        eps_frac = Fraction(epsilon_fraction)
        xi_frac = Fraction(xi_fraction)
        if eps_frac < 0 or xi_frac < 0:
            raise ValueError("shares must be non-negative")
        if self.epsilon_fraction_allocated + eps_frac > 1:
            raise ValueError(f"epsilon budget exceeded allocating {name!r}")
        if self.xi_fraction_allocated + xi_frac > 1:
            raise ValueError(f"xi budget exceeded allocating {name!r}")
        entry = BudgetEntry(name, eps_frac, xi_frac)
        self._entries[name] = entry
        return entry

    @property
    def entries(self) -> list[BudgetEntry]:
        return list(self._entries.values())

    @property
    def epsilon_fraction_allocated(self) -> Fraction:
        return sum((e.epsilon_fraction for e in self._entries.values()), Fraction(0))

    @property
    def xi_fraction_allocated(self) -> Fraction:
        return sum((e.xi_fraction for e in self._entries.values()), Fraction(0))

    def epsilon_of(self, name: str) -> float:
        return self.total_epsilon * float(self._entries[name].epsilon_fraction)

    @property
    def epsilon_allocated(self) -> float:
        """Exactly total_epsilon when the fractions sum to 1."""
        return self.total_epsilon * float(self.epsilon_fraction_allocated)
