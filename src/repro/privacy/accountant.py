"""Multi-publication privacy accountant.

The paper's Section 8 discusses budget management across periodic
publications (one publication per week in the FluTracking use case, at most
one record per individual per publication).  :class:`PublicationAccountant`
implements that policy: a total budget, a planned horizon of publications,
and per-publication shares released one at a time.

Grants are thread-safe (a concurrent runtime may open publications from
worker threads) and optionally *durable*: with a
:class:`~repro.durability.ledger.BudgetLedger` attached, every grant is a
two-phase **intent → commit** append, so a collector crash between grant
and publish can never double-spend ε — recovery counts un-committed
intents as spent (the safe direction).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.privacy.budget import BudgetExhausted, PrivacyBudget


@dataclass(frozen=True)
class PublicationGrant:
    """The budget share granted to one publication.

    Parameters
    ----------
    publication:
        The monotonic publication number the grant is bound to.
    epsilon:
        The ε the publication's index may consume.
    """

    publication: int
    epsilon: float


class PublicationAccountant:
    """Grants equal per-publication ε shares over a fixed horizon.

    Parameters
    ----------
    total_epsilon:
        The overall budget ε_total for the data subject population.
    horizon:
        Number of publications the budget must last for (e.g. 52 weeks).
    ledger:
        Optional :class:`~repro.durability.ledger.BudgetLedger`.  When
        given, :meth:`grant` appends a durable *intent* entry **before**
        the in-memory budget moves and :meth:`commit` appends the
        matching entry after the cloud acknowledged the publication.

    Notes
    -----
    Under the paper's assumption of at most one record per individual per
    publication, each individual's records appear in disjoint datasets, so
    each publication's index is an independent ε_pub-DP release and the
    per-individual total over the horizon is ε_total by sequential
    composition.
    """

    def __init__(self, total_epsilon: float, horizon: int, ledger=None):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self._budget = PrivacyBudget(total_epsilon)
        self._horizon = horizon
        self._share = total_epsilon / horizon
        self._granted = 0
        self._committed: set[int] = set()
        self._ledger = ledger
        # grant() is check-then-act on the granted counter; concurrent
        # callers must never each pass the horizon check.
        self._lock = threading.Lock()

    @property
    def per_publication_epsilon(self) -> float:
        """The equal share each publication receives."""
        return self._share

    @property
    def publications_granted(self) -> int:
        """Number of grants issued so far."""
        return self._granted

    @property
    def publications_remaining(self) -> int:
        """Grants still available within the horizon."""
        return self._horizon - self._granted

    @property
    def remaining_epsilon(self) -> float:
        """Unspent portion of the total budget."""
        return self._budget.remaining

    @property
    def committed_publications(self) -> frozenset[int]:
        """Grants whose publication was acknowledged (ledger-committed)."""
        return frozenset(self._committed)

    def uncommitted_grants(self) -> frozenset[int]:
        """Granted publications never committed — spent but unpublished."""
        return frozenset(range(self._granted)) - self._committed

    def grant(self) -> PublicationGrant:
        """Issue the next publication's budget share.

        With a ledger attached the intent entry is fsync'd to disk
        *before* any in-memory state changes, so a crash at any point
        leaves the grant either fully durable or never made.

        Raises
        ------
        BudgetExhausted
            Once the horizon has been fully consumed.
        """
        with self._lock:
            if self._granted >= self._horizon:
                raise BudgetExhausted(
                    f"all {self._horizon} publication grants already issued"
                )
            publication = self._granted
            if self._ledger is not None:
                self._ledger.append_intent(publication, self._share)
            self._budget.spend(self._share, label=f"publication-{publication}")
            self._granted += 1
            return PublicationGrant(
                publication=publication, epsilon=self._share
            )

    def commit(self, publication: int) -> None:
        """Mark a granted publication as published (second ledger phase).

        Raises
        ------
        ValueError
            If the publication was never granted.
        """
        with self._lock:
            if not 0 <= publication < self._granted:
                raise ValueError(
                    f"publication {publication} was never granted"
                )
            if publication in self._committed:
                return
            if self._ledger is not None:
                self._ledger.append_commit(publication)
            self._committed.add(publication)

    def close(self) -> None:
        """Close the attached ledger's file (no-op without a ledger)."""
        if self._ledger is not None:
            self._ledger.close()

    @classmethod
    def restore(
        cls, total_epsilon: float, horizon: int, ledger
    ) -> "PublicationAccountant":
        """Rebuild an accountant from its ledger after a crash.

        Every ledgered intent is replayed as spent — committed or not —
        so the restored :meth:`remaining_epsilon` is never higher than
        what the crashed process had durably granted.
        """
        state = ledger.replay()
        accountant = cls(total_epsilon, horizon, ledger=ledger)
        for publication in sorted(state.intents):
            if publication != accountant._granted:
                from repro.durability.journal import JournalCorrupt

                raise JournalCorrupt(
                    f"ledger intents are not contiguous at {publication}"
                )
            accountant._budget.spend(
                state.intents[publication],
                label=f"publication-{publication}",
            )
            accountant._granted += 1
        accountant._committed = set(state.committed)
        return accountant
