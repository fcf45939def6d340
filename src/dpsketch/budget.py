"""Privacy budget ledger and the boosting recipe every boosted estimator shares.

Shares are stored as exact fractions of the top-level budget so that the
recorded total of s sub-mechanisms at eps/s each is exactly eps, with no
floating-point drift.  A boosted estimator runs independent copies side by
side and takes a per-timestamp median (the median trick); each copy gets an
equal share of epsilon and xi, which add up under basic composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class BudgetEntry:
    name: str
    epsilon_fraction: Fraction
    xi_fraction: Fraction


class MechanismBudget:
    """Tracks how a top-level (epsilon, xi) budget splits across sub-mechanisms.
    Running totals keep each allocation O(1)."""

    def __init__(self, total_epsilon: float, total_xi: float = 0.0) -> None:
        if total_epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {total_epsilon}")
        self.total_epsilon = float(total_epsilon)
        self.total_xi = float(total_xi)
        self._entries: dict[str, BudgetEntry] = {}
        self.epsilon_fraction_allocated = Fraction(0)
        self.xi_fraction_allocated = Fraction(0)

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
        eps_total = self.epsilon_fraction_allocated + eps_frac
        xi_total = self.xi_fraction_allocated + xi_frac
        if eps_total > 1:
            raise ValueError(f"epsilon budget exceeded allocating {name!r}")
        if xi_total > 1:
            raise ValueError(f"xi budget exceeded allocating {name!r}")
        entry = BudgetEntry(name, eps_frac, xi_frac)
        self._entries[name] = entry
        self.epsilon_fraction_allocated = eps_total
        self.xi_fraction_allocated = xi_total
        return entry

    @property
    def entries(self) -> list[BudgetEntry]:
        return list(self._entries.values())

    def epsilon_of(self, name: str) -> float:
        return self.total_epsilon * float(self._entries[name].epsilon_fraction)

    @property
    def epsilon_allocated(self) -> float:
        """Exactly total_epsilon when the fractions sum to 1."""
        return self.total_epsilon * float(self.epsilon_fraction_allocated)


def copy_count(copies: int | None, T: int, xi: float, n: int = 1, c: int = 2) -> int:
    """``copies`` (at least 1), or by default the median trick's
    ceil(50 (ln(c T / xi) + ln n)), a union bound over c*T*n events at total
    failure probability xi."""
    if copies is not None:
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        return copies
    return math.ceil(50 * (math.log(c * T / xi) + math.log(n)))


def equal_shares(epsilon: float, xi: float, copies: int) -> MechanismBudget:
    """The ledger of ``copies`` boosted copies: "copy-c" gets 1/copies of both."""
    budget = MechanismBudget(epsilon, xi)
    share = Fraction(1, copies)
    for c in range(copies):
        budget.allocate(f"copy-{c}", share, share)
    return budget


def check_epsilon(epsilon: float | None) -> None:
    """The one rule for a valid epsilon: finite and > 0."""
    if epsilon is None or not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be > 0 and finite, got {epsilon}")


def check_p(p: float) -> None:
    """The one rule for a valid moment order p: finite and >= 0."""
    if not 0 <= p < math.inf:
        raise ValueError(f"p must be >= 0 and finite, got {p}")


@dataclass(frozen=True, kw_only=True)
class BoostedConfig:
    """The parameter block every boosted estimator shares: an epsilon-DP
    release within (1 + eta) w.p. 1 - xi at each of T ticks over ids in
    [0, n), from ``copies`` copies combined by a per-tick median.  A config's
    default copy count is a union bound over ``EVENTS_PER_TICK`` failure
    events per tick, and over each of the n elements too if ``PER_ELEMENT``."""

    EVENTS_PER_TICK = 2
    PER_ELEMENT = False

    epsilon: float
    eta: float
    xi: float
    n: int
    T: int
    copies: int | None = None  # None: see n_copies

    def __post_init__(self) -> None:
        if not 0 < self.eta < 0.5:
            raise ValueError(f"eta must be in (0, 0.5), got {self.eta}")
        if not 0 < self.xi < 0.5:
            raise ValueError(f"xi must be in (0, 0.5), got {self.xi}")
        check_epsilon(self.epsilon)
        if self.n < 1 or self.T < 1:
            raise ValueError(f"n and T must be >= 1, got n={self.n}, T={self.T}")

    def n_copies(self) -> int:
        """``copies``, or the median trick's default over this config's union bound."""
        n = self.n if self.PER_ELEMENT else 1
        return copy_count(self.copies, self.T, self.xi, n, self.EVENTS_PER_TICK)
