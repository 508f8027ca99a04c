"""The privacy ledger: one composition rule for every layer of the reproduction.

Section 1.1 of the paper singles out closure under composition as the
property separating differential privacy from k-anonymity; this module is
where that property lives — once.  Composition is basic everywhere: a
ledger's epsilon is the sum of its charges (:func:`_epsilon_sum`), and
across analysts the sums add again.  The module provides:

* :class:`PrivacySpend` — one (epsilon, delta) charge;
* :func:`advanced_composition` — the Theorem 2.9 bound, which the DP-SGD
  report in :mod:`repro.ml.logistic` quotes (no ledger charges by it);
* :class:`BudgetExhausted` — the refusal raised by *every* budget in the
  repo (a single ledger's, an analyst's, the service's);
* :class:`PrivacyAccountant` — a thread-safe single ledger with
  all-or-nothing :meth:`~PrivacyAccountant.reserve` /
  :meth:`~PrivacyAccountant.rollback` semantics and an optional query-count
  budget;
* :class:`BasicAccountant` — the multi-analyst ledger: one
  :class:`PrivacyAccountant` sub-ledger per analyst plus a global cap
  across analysts.  Its ``max_queries_per_analyst`` is the one query cap
  in the repo: Theorem 1.1's "limit the number of queries" defense;
* :class:`BudgetLease` — the charge-and-hold handle the serve path's
  BudgetReserve step settles;
* :class:`ShardedAccountant` — :class:`BasicAccountant` shards under one
  exact global cap, for the sharded front end.

Every epsilon and budget refusal is written ``not x >= 0`` or ``not x > 0``
so that a NaN fails it: NaN compares false to everything, and a NaN charge
that slipped through would turn every later budget comparison false too.

Cohen–Nissim's *Linear Program Reconstruction in Practice* shows that
drift between accounting layers is where production privacy bugs live, so
every budget and query cap in the repo is charged through this module.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasicAccountant",
    "BudgetExhausted",
    "BudgetLease",
    "PrivacyAccountant",
    "PrivacySpend",
    "ShardedAccountant",
    "advanced_composition",
    "stable_shard",
]

#: Slack for floating-point accumulation in budget comparisons.
_EPSILON_TOLERANCE = 1e-12
_DELTA_TOLERANCE = 1e-15


@dataclass(frozen=True)
class PrivacySpend:
    """One (epsilon, delta) charge with an optional label for auditing."""

    epsilon: float
    delta: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be non-negative")
        if not 0 <= self.delta < 1:
            raise ValueError("delta must lie in [0, 1)")


def _epsilon_sum(counts: dict[float, int]) -> float:
    """Basic composition of an ``{epsilon: count}`` ledger: epsilons add."""
    return float(sum(eps * count for eps, count in counts.items()))


def advanced_composition(
    epsilon: float, k: int, delta_prime: float
) -> tuple[float, float]:
    """Advanced composition of ``k`` epsilon-DP mechanisms.

    Returns the (epsilon', k*0 + delta') guarantee with
    ``epsilon' = sqrt(2 k ln(1/delta')) * epsilon + k * epsilon *
    (e^epsilon - 1)`` — the sqrt(k) scaling that makes high-query-count
    DP analyses feasible at all.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0 < delta_prime < 1:
        raise ValueError("delta_prime must lie in (0, 1)")
    epsilon_total = float(
        np.sqrt(2.0 * k * np.log(1.0 / delta_prime)) * epsilon
        + k * epsilon * (np.exp(epsilon) - 1.0)
    )
    return epsilon_total, float(delta_prime)


class BudgetExhausted(RuntimeError):
    """A charge was refused: answering would exceed a privacy budget.

    Attributes:
        analyst: the session whose charge was refused ("" for a
            single-ledger accountant).
        scope: which budget would have been exceeded — ``"analyst"``,
            ``"global"``, or ``"queries"`` at the service layer,
            ``"epsilon"``, ``"delta"``, or ``"queries"`` for a plain
            :class:`PrivacyAccountant`.
        requested: the epsilon (or query count, for ``"queries"``) asked for.
        budget: the limit that would have been crossed.
        spent: the ledger total before the refused charge.
    """

    def __init__(
        self,
        message: str,
        *,
        analyst: str = "",
        scope: str = "",
        requested: float = 0.0,
        budget: float = 0.0,
        spent: float = 0.0,
    ):
        super().__init__(message)
        self.analyst = analyst
        self.scope = scope
        self.requested = requested
        self.budget = budget
        self.spent = spent


class PrivacyAccountant:
    """A thread-safe (epsilon, delta) ledger with all-or-nothing charges.

    The ledger is stored as ``{epsilon: count}`` aggregates, so budget
    checks stay O(#distinct epsilon) however many queries are charged.

    Charging is :meth:`reserve` / :meth:`rollback`, the all-or-nothing
    batch API the synthesizers and the per-analyst service ledgers use: a
    refused reservation records nothing, and a reservation whose work
    later fails can be rolled back.
    """

    def __init__(
        self,
        epsilon_budget: float | None = None,
        delta_budget: float = 0.0,
        max_queries: int | None = None,
    ):
        if epsilon_budget is not None and not epsilon_budget > 0:
            raise ValueError("epsilon_budget must be positive when set")
        if not 0 <= delta_budget < 1:
            raise ValueError("delta_budget must lie in [0, 1)")
        if max_queries is not None and not max_queries > 0:
            raise ValueError("max_queries must be positive when set")
        self.epsilon_budget = epsilon_budget
        self.delta_budget = delta_budget
        self.max_queries = max_queries
        self._counts: dict[float, int] = {}
        self._delta_total = 0.0
        self._queries = 0
        self._lock = threading.RLock()

    # -- read access --------------------------------------------------------

    @property
    def queries_charged(self) -> int:
        """Number of unit charges recorded so far."""
        with self._lock:
            return self._queries

    @property
    def epsilon_composed(self) -> float:
        """Composed (summed) epsilon of the ledger."""
        with self._lock:
            return _epsilon_sum(self._counts)

    def total(self) -> tuple[float, float]:
        """Current (epsilon, delta) under basic composition."""
        with self._lock:
            return _epsilon_sum(self._counts), float(self._delta_total)

    # -- charging -----------------------------------------------------------

    def reserve(
        self,
        count: int,
        epsilon: float,
        delta: float = 0.0,
        *,
        analyst: str = "",
    ) -> None:
        """Atomically charge ``count`` queries at (``epsilon``, ``delta``) each.

        All-or-nothing: if any budget (query count, epsilon, delta) would be
        exceeded, raises :class:`BudgetExhausted` and records nothing.  The
        optional ``analyst`` only decorates refusal messages — the
        multi-analyst bookkeeping lives in :class:`BasicAccountant`.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not epsilon >= 0:
            raise ValueError("epsilon must be non-negative")
        if not 0 <= delta < 1:
            raise ValueError("delta must lie in [0, 1)")
        if count == 0:
            return
        count = int(count)
        prefix = f"analyst {analyst!r}: " if analyst else ""
        with self._lock:
            if (
                self.max_queries is not None
                and self._queries + count > self.max_queries
            ):
                raise BudgetExhausted(
                    f"{prefix}{count} more queries would exceed the query "
                    f"budget of {self.max_queries} "
                    f"({self._queries} already answered)",
                    analyst=analyst,
                    scope="queries",
                    requested=count,
                    budget=self.max_queries,
                    spent=self._queries,
                )
            if self.epsilon_budget is not None:
                candidate = dict(self._counts)
                candidate[epsilon] = candidate.get(epsilon, 0) + count
                before = _epsilon_sum(self._counts)
                after = _epsilon_sum(candidate)
                if after > self.epsilon_budget + _EPSILON_TOLERANCE:
                    if analyst:
                        message = (
                            f"analyst {analyst!r}: charging {count} x eps="
                            f"{epsilon} would total {after:.4f} > "
                            f"budget {self.epsilon_budget}"
                        )
                        scope = "analyst"
                    else:
                        what = (
                            f"spend of eps={epsilon}"
                            if count == 1
                            else f"charging {count} x eps={epsilon}"
                        )
                        message = (
                            f"privacy budget exceeded: {what} would total "
                            f"{after:.4f} > budget {self.epsilon_budget}"
                        )
                        scope = "epsilon"
                    raise BudgetExhausted(
                        message,
                        analyst=analyst,
                        scope=scope,
                        requested=after - before,
                        budget=self.epsilon_budget,
                        spent=before,
                    )
            total_delta = self._delta_total + delta * count
            if total_delta > self.delta_budget + _DELTA_TOLERANCE:
                raise BudgetExhausted(
                    f"{prefix}delta budget exceeded: total {total_delta} > "
                    f"{self.delta_budget}",
                    analyst=analyst,
                    scope="delta",
                    requested=delta * count,
                    budget=self.delta_budget,
                    spent=self._delta_total,
                )
            self._counts[epsilon] = self._counts.get(epsilon, 0) + count
            self._delta_total = total_delta
            self._queries += count

    def rollback(self, count: int, epsilon: float, delta: float = 0.0) -> None:
        """Return a reservation to the budget (the work was never done).

        The inverse of :meth:`reserve` for the same ``(count, epsilon,
        delta)``; only the most recent reservations may be rolled back, so
        callers pair each rollback with their own failed reserve.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        count = int(count)
        with self._lock:
            recorded = self._counts.get(epsilon, 0)
            if recorded < count or self._queries < count:
                raise ValueError(
                    f"cannot roll back {count} x eps={epsilon}: only "
                    f"{recorded} such charges recorded"
                )
            if recorded == count:
                del self._counts[epsilon]
            else:
                self._counts[epsilon] = recorded - count
            self._delta_total = max(0.0, self._delta_total - delta * count)
            self._queries -= count

    def __repr__(self) -> str:
        epsilon, delta = self.total()
        return (
            f"{type(self).__name__}(spent=({epsilon:.4f}, {delta:.2e}), "
            f"budget={self.epsilon_budget})"
        )


class BasicAccountant(PrivacyAccountant):
    """Per-analyst and global epsilon ledgers with all-or-nothing charges.

    The multi-analyst extension of :class:`PrivacyAccountant`: each analyst
    gets a :class:`PrivacyAccountant` sub-ledger carrying the per-analyst
    epsilon and query budgets.  The global ledger sums the analysts'
    epsilons — the private data answers all of them, so their losses add —
    and every charge is also mirrored into the inherited single ledger,
    which therefore reports the (epsilon, delta) total across the whole
    service via :meth:`total` (the compliance COMPOSE verifier reads it).
    """

    def __init__(
        self,
        per_analyst_epsilon: float | None = None,
        global_epsilon: float | None = None,
        max_queries_per_analyst: int | None = None,
    ):
        if per_analyst_epsilon is not None and not per_analyst_epsilon > 0:
            raise ValueError("per_analyst_epsilon must be positive when set")
        if global_epsilon is not None and not global_epsilon > 0:
            raise ValueError("global_epsilon must be positive when set")
        if max_queries_per_analyst is not None and not max_queries_per_analyst > 0:
            raise ValueError("max_queries_per_analyst must be positive when set")
        super().__init__()
        self.per_analyst_epsilon = per_analyst_epsilon
        self.global_epsilon = global_epsilon
        self.max_queries_per_analyst = max_queries_per_analyst
        self._ledgers: dict[str, PrivacyAccountant] = {}

    def _ledger_for(self, analyst: str) -> PrivacyAccountant:
        ledger = self._ledgers.get(analyst)
        if ledger is None:
            ledger = PrivacyAccountant(
                epsilon_budget=self.per_analyst_epsilon,
                max_queries=self.max_queries_per_analyst,
            )
            self._ledgers[analyst] = ledger
        return ledger

    def analyst_queries(self, analyst: str) -> int:
        """Queries charged to ``analyst`` so far."""
        with self._lock:
            ledger = self._ledgers.get(analyst)
            return ledger.queries_charged if ledger is not None else 0

    def analyst_epsilon(self, analyst: str) -> float:
        """``analyst``'s composed epsilon so far."""
        with self._lock:
            ledger = self._ledgers.get(analyst)
            return ledger.epsilon_composed if ledger is not None else 0.0

    def global_spent(self) -> float:
        """Composed epsilon across all analysts (their epsilons add)."""
        with self._lock:
            return sum(ledger.epsilon_composed for ledger in self._ledgers.values())

    def charge(self, analyst: str, count: int, epsilon_per_query: float) -> None:
        """Atomically charge ``count`` queries at ``epsilon_per_query`` each.

        All-or-nothing: if any budget (query count, per-analyst epsilon,
        global epsilon) would be exceeded, raises :class:`BudgetExhausted`
        and records nothing.  ``epsilon_per_query`` may be 0 for non-DP
        mechanisms, in which case only the query-count budget can refuse.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not epsilon_per_query >= 0:
            raise ValueError("epsilon_per_query must be non-negative")
        if count == 0:
            return
        with self._lock:
            ledger = self._ledger_for(analyst)
            before = ledger.epsilon_composed
            ledger.reserve(count, epsilon_per_query, analyst=analyst)
            after = ledger.epsilon_composed
            if self.global_epsilon is not None:
                grand = sum(
                    led.epsilon_composed for led in self._ledgers.values()
                )
                if grand > self.global_epsilon + _EPSILON_TOLERANCE:
                    ledger.rollback(count, epsilon_per_query)
                    raise BudgetExhausted(
                        f"global budget: charging analyst {analyst!r} {count} x "
                        f"eps={epsilon_per_query} would total "
                        f"{grand:.4f} > budget {self.global_epsilon}",
                        analyst=analyst,
                        scope="global",
                        requested=after - before,
                        budget=self.global_epsilon,
                        spent=grand - (after - before),
                    )
            # Mirror into the inherited single ledger (no budgets attached)
            # so the service reports a global (epsilon, delta) total.
            super().reserve(count, epsilon_per_query)

    def refund(self, analyst: str, count: int, epsilon_per_query: float) -> None:
        """Return a charge to the budgets (the inverse of :meth:`charge`).

        For callers whose work fails *after* a successful charge — e.g. a
        synthetic release whose generation raises.  Like
        :meth:`PrivacyAccountant.rollback`, only the most recent charges of
        the same shape may be refunded.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        with self._lock:
            ledger = self._ledgers.get(analyst)
            if ledger is None:
                raise ValueError(f"no charges recorded for analyst {analyst!r}")
            ledger.rollback(count, epsilon_per_query)
            super().rollback(count, epsilon_per_query)

    def lease(self, analyst: str, count: int, epsilon_per_query: float) -> "BudgetLease":
        """Charge now, with a typed handle to roll the charge back.

        The serve path's BudgetReserve step contract: the charge
        lands atomically (identical verdicts to :meth:`charge`), and the
        returned :class:`BudgetLease` is either committed once the request
        is actually served or rolled back if a later step fails — no
        budget is ever burned for an answer that was never released.
        """
        return BudgetLease.acquire(self, analyst, count, epsilon_per_query)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(global_spent={self.global_spent():.4f}, "
            f"per_analyst_budget={self.per_analyst_epsilon}, "
            f"global_budget={self.global_epsilon})"
        )


class BudgetLease:
    """A held (not yet settled) budget charge: the serve-step contract.

    ``acquire`` performs the all-or-nothing charge immediately — so refusal
    points and :class:`BudgetExhausted` verdicts are bit-identical to a
    plain ``charge`` — but hands back an object that must be *settled*:
    :meth:`commit` once the answers were actually released, or
    :meth:`rollback` to refund the charge when a later serve step
    (mechanism execution, cache insert, audit append) raises.  Works
    against either service accountant, :class:`BasicAccountant` or
    :class:`ShardedAccountant`: both expose ``charge``/``refund`` with the
    same signature.

    Settling is idempotent and single-shot: a committed lease refuses to
    roll back, and a rolled-back lease refunds exactly once.
    """

    __slots__ = ("accountant", "analyst", "count", "epsilon_per_query", "_state")

    _HELD, _COMMITTED, _ROLLED_BACK = "held", "committed", "rolled_back"

    def __init__(self, accountant, analyst: str, count: int, epsilon_per_query: float):
        self.accountant = accountant
        self.analyst = analyst
        self.count = int(count)
        self.epsilon_per_query = float(epsilon_per_query)
        self._state = self._HELD

    @classmethod
    def acquire(
        cls, accountant, analyst: str, count: int, epsilon_per_query: float
    ) -> "BudgetLease":
        """Charge ``count`` queries at ``epsilon_per_query`` and hold them."""
        accountant.charge(analyst, count, epsilon_per_query)
        return cls(accountant, analyst, count, epsilon_per_query)

    @property
    def settled(self) -> bool:
        """Whether the lease has been committed or rolled back."""
        return self._state != self._HELD

    @property
    def committed(self) -> bool:
        """Whether the charge was committed (answers released)."""
        return self._state == self._COMMITTED

    def commit(self) -> None:
        """Finalize the charge; after this, rollback refuses."""
        if self._state == self._ROLLED_BACK:
            raise RuntimeError("cannot commit a rolled-back budget lease")
        self._state = self._COMMITTED

    def rollback(self) -> None:
        """Refund the held charge (idempotent; refuses after commit)."""
        if self._state == self._COMMITTED:
            raise RuntimeError("cannot roll back a committed budget lease")
        if self._state == self._ROLLED_BACK:
            return
        self._state = self._ROLLED_BACK
        self.accountant.refund(self.analyst, self.count, self.epsilon_per_query)

    def __repr__(self) -> str:
        return (
            f"BudgetLease(analyst={self.analyst!r}, count={self.count}, "
            f"epsilon_per_query={self.epsilon_per_query}, state={self._state!r})"
        )


def stable_shard(name: str, shards: int) -> int:
    """Deterministic, process-independent ``name -> shard`` assignment.

    BLAKE2b of the UTF-8 name reduced mod ``shards`` — no per-process hash
    seed, so the same analyst lands on the same shard in every run, every
    worker, and every test, which is what lets sharded components promise
    bit-identical per-analyst behavior.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % shards


class _EpsilonLease:
    """One shard's leased slice of the global epsilon budget.

    A strictly *leaf* lock: consumed and refilled under its own mutex and
    never held while any other lock is acquired, so lease traffic can never
    participate in a lock cycle.  The balance is pure admission credit —
    the authoritative spend always lives in the per-analyst ledgers.
    """

    __slots__ = ("_lock", "balance")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.balance = 0.0

    def consume(self, amount: float) -> bool:
        """Atomically deduct ``amount`` if covered; False means reconcile."""
        with self._lock:
            if amount <= self.balance:
                self.balance -= amount
                return True
            return False

    def deposit(self, amount: float) -> None:
        with self._lock:
            self.balance += amount

    def drain(self) -> float:
        """Zero the balance, returning what was outstanding."""
        with self._lock:
            outstanding, self.balance = self.balance, 0.0
            return outstanding


#: Shard-count default for :class:`ShardedAccountant` (and the sharded
#: service front end, which mirrors it).
DEFAULT_SHARDS = 16


class ShardedAccountant:
    """``S`` independent service sub-ledgers under one exact global cap.

    The scaling problem with :class:`BasicAccountant` is its single
    re-entrant lock: every fresh query from every analyst serializes on it.
    This accountant hash-partitions analysts across ``shards`` independent
    :class:`BasicAccountant` instances (via :func:`stable_shard`), so
    per-analyst and per-shard bookkeeping contend only within a shard — the
    request hot path never takes a global lock.

    The one genuinely global constraint — ``global_epsilon`` across all
    analysts — is enforced by *epsilon leases*: each shard holds a credit
    balance pre-authorized by a broker, charges are debited against it
    locally, and only when a shard's credit runs dry does it take the
    broker lock, reclaim every outstanding lease, and re-run the **exact**
    single-ledger check (the same ordered float sum over per-analyst
    composed epsilons, the same tolerance, the same refusal message).
    Refusals therefore only ever happen on the exact path, and the broker
    grants credit strictly within ``global_epsilon`` (no tolerance), so:

    * a charge accepted from a lease would also have been accepted by the
      single ledger (the lease invariant keeps the true total <= budget);
    * a refused charge raises a :class:`BudgetExhausted` bit-identical to
      the one :class:`BasicAccountant` raises at the same point;
    * spend reads (:meth:`global_spent`, :meth:`analyst_epsilon`,
      :meth:`total`) are reconciled exactly on every call — the leases are
      never part of the reported ledger.

    Args mirror :class:`BasicAccountant`; ``lease_chunk`` sizes the credit
    a reconciliation grants (default ``global_epsilon / (4 * shards)``).
    """

    def __init__(
        self,
        per_analyst_epsilon: float | None = None,
        global_epsilon: float | None = None,
        max_queries_per_analyst: int | None = None,
        *,
        shards: int = DEFAULT_SHARDS,
        lease_chunk: float | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if global_epsilon is not None and not global_epsilon > 0:
            raise ValueError("global_epsilon must be positive when set")
        if lease_chunk is not None and not lease_chunk > 0:
            raise ValueError("lease_chunk must be positive when set")
        self.shards = int(shards)
        self.per_analyst_epsilon = per_analyst_epsilon
        self.global_epsilon = global_epsilon
        self.max_queries_per_analyst = max_queries_per_analyst
        self._shard_ledgers = tuple(
            BasicAccountant(per_analyst_epsilon, None, max_queries_per_analyst)
            for _ in range(self.shards)
        )
        if lease_chunk is None and global_epsilon is not None:
            lease_chunk = global_epsilon / (4.0 * self.shards)
        self.lease_chunk = lease_chunk
        self._leases = tuple(_EpsilonLease() for _ in range(self.shards))
        self._broker_lock = threading.Lock()
        #: Exact global reconciliations run so far (lease exhaustion events).
        self.reconciliations = 0
        self._telemetry = None
        # First-charge order across all shards: the exact global check must
        # sum composed epsilons in the same order BasicAccountant's
        # ledger dict iterates, or float rounding breaks bit-identity.
        self._order: list[tuple[int, str]] = []
        self._known: dict[str, int] = {}

    def bind_telemetry(self, telemetry) -> None:
        """Register budget gauges and the reconciliation counter (idempotent).

        One accountant serves every shard server, so all of them bind the
        same instance; the first bind wins.  Every metric is a snapshot
        -time callback — ``global_spent`` takes the broker lock, which is
        exactly the read path diagnostics already use, and nothing is
        added to the charge hot path beyond the ``reconciliations``
        integer bump already inside the reconciliation critical section.
        """
        if self._telemetry is not None or not getattr(telemetry, "enabled", False):
            return
        from repro.telemetry.instrument import (
            BUDGET_EPSILON_REMAINING,
            BUDGET_EPSILON_SPENT,
            LEASE_RECONCILIATIONS,
        )

        self._telemetry = telemetry
        registry = telemetry.registry
        registry.counter_fn(
            LEASE_RECONCILIATIONS, lambda: float(self.reconciliations)
        )
        registry.gauge_fn(BUDGET_EPSILON_SPENT, lambda: self.global_spent())
        if self.global_epsilon is not None:
            registry.gauge_fn(
                BUDGET_EPSILON_REMAINING,
                lambda: max(0.0, self.global_epsilon - self.global_spent()),
            )

    # -- routing ------------------------------------------------------------

    def shard_of(self, analyst: str) -> int:
        """The shard the named analyst's ledger lives on."""
        return stable_shard(analyst, self.shards)

    def _register(self, analyst: str, index: int) -> None:
        # Lock-free fast path: registered analysts are never removed, so a
        # plain dict read suffices after the first charge attempt.
        if analyst not in self._known:
            with self._broker_lock:
                if analyst not in self._known:
                    self._known[analyst] = index
                    self._order.append((index, analyst))

    # -- charging -----------------------------------------------------------

    def charge(self, analyst: str, count: int, epsilon_per_query: float) -> None:
        """Atomically charge ``count`` queries at ``epsilon_per_query`` each.

        Semantics of :meth:`BasicAccountant.charge`, verdicts included:
        per-analyst refusals come from the analyst's (shard-local) ledger,
        global refusals from the exact reconciliation path.  Only the
        owning shard's lock is taken unless the shard's lease runs dry.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not epsilon_per_query >= 0:
            raise ValueError("epsilon_per_query must be non-negative")
        if count == 0:
            return
        index = self.shard_of(analyst)
        shard = self._shard_ledgers[index]
        self._register(analyst, index)
        with shard._lock:
            ledger = shard._ledger_for(analyst)
            before = ledger.epsilon_composed
            ledger.reserve(count, epsilon_per_query, analyst=analyst)
            delta = ledger.epsilon_composed - before
            if self.global_epsilon is not None and not self._leases[index].consume(
                delta
            ):
                try:
                    self._reconcile_charge(index, analyst, count, epsilon_per_query, delta)
                except BudgetExhausted:
                    ledger.rollback(count, epsilon_per_query)
                    raise
            # Mirror into the shard's own single ledger so shard totals and
            # queries_charged aggregate without walking analyst ledgers.
            PrivacyAccountant.reserve(shard, count, epsilon_per_query)

    def _reconcile_charge(
        self, index: int, analyst: str, count: int, epsilon_per_query: float, delta: float
    ) -> None:
        """Exact global check at lease exhaustion; refill on success.

        Reclaims every outstanding lease, recomputes the global total the
        way the single ledger does (ordered float sum, charge already
        reserved), and refuses with the identical :class:`BudgetExhausted`
        when it crosses ``global_epsilon``.  On success the calling shard
        is granted a fresh credit chunk, capped so that spend plus every
        outstanding lease can never exceed the budget.
        """
        assert self.global_epsilon is not None
        with self._broker_lock:
            self.reconciliations += 1
            for lease in self._leases:
                lease.drain()
            grand = self._grand_total()
            if grand > self.global_epsilon + _EPSILON_TOLERANCE:
                raise BudgetExhausted(
                    f"global budget: charging analyst {analyst!r} {count} x "
                    f"eps={epsilon_per_query} would total "
                    f"{grand:.4f} > budget {self.global_epsilon}",
                    analyst=analyst,
                    scope="global",
                    requested=delta,
                    budget=self.global_epsilon,
                    spent=grand - delta,
                )
            headroom = max(0.0, self.global_epsilon - grand)
            self._leases[index].deposit(min(self.lease_chunk or headroom, headroom))

    def _grand_total(self) -> float:
        """Ordered exact sum of per-analyst composed epsilons.

        Same iteration order (first charge attempt) and same ``sum``
        semantics as ``BasicAccountant.global_spent`` — freshly created
        ledgers contribute an exact ``0.0``, so including them is bit-safe.
        """
        return sum(
            ledger.epsilon_composed
            for index, analyst in self._order
            if (ledger := self._shard_ledgers[index]._ledgers.get(analyst)) is not None
        )

    def refund(self, analyst: str, count: int, epsilon_per_query: float) -> None:
        """Return a charge to the budgets (inverse of :meth:`charge`)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        index = self.shard_of(analyst)
        shard = self._shard_ledgers[index]
        with shard._lock:
            ledger = shard._ledgers.get(analyst)
            if ledger is None:
                raise ValueError(f"no charges recorded for analyst {analyst!r}")
            before = ledger.epsilon_composed
            ledger.rollback(count, epsilon_per_query)
            delta = before - ledger.epsilon_composed
            PrivacyAccountant.rollback(shard, count, epsilon_per_query)
        if self.global_epsilon is not None and delta > 0:
            # The freed headroom goes back to the refunding shard's lease;
            # spend dropped by exactly delta, so the invariant holds.
            self._leases[index].deposit(delta)

    def lease(self, analyst: str, count: int, epsilon_per_query: float) -> BudgetLease:
        """Charge-and-hold, the :meth:`BasicAccountant.lease` contract."""
        return BudgetLease.acquire(self, analyst, count, epsilon_per_query)

    # -- read access (always exact; leases are invisible here) --------------

    def analyst_queries(self, analyst: str) -> int:
        """Queries charged to ``analyst`` so far."""
        return self._shard_ledgers[self.shard_of(analyst)].analyst_queries(analyst)

    def analyst_epsilon(self, analyst: str) -> float:
        """``analyst``'s composed epsilon so far."""
        return self._shard_ledgers[self.shard_of(analyst)].analyst_epsilon(analyst)

    def global_spent(self) -> float:
        """Composed epsilon across all analysts, reconciled exactly.

        Bit-identical to ``BasicAccountant.global_spent`` for the same
        charge history: same per-analyst composed values, summed in the
        same first-charge order.
        """
        with self._broker_lock:
            return self._grand_total()

    @property
    def queries_charged(self) -> int:
        """Unit charges recorded across every shard."""
        return sum(shard.queries_charged for shard in self._shard_ledgers)

    def total(self) -> tuple[float, float]:
        """Aggregate (epsilon, delta) under basic composition, shard order."""
        epsilon = 0.0
        delta = 0.0
        for shard in self._shard_ledgers:
            shard_epsilon, shard_delta = shard.total()
            epsilon += shard_epsilon
            delta += shard_delta
        return epsilon, delta

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards={self.shards}, "
            f"global_spent={self.global_spent():.4f}, "
            f"per_analyst_budget={self.per_analyst_epsilon}, "
            f"global_budget={self.global_epsilon})"
        )
