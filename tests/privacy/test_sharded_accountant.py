"""Budget exactness under sharding.

The sharded accountant's contract is *bit-identity*: for any interleaving
of charges across shards, total spend and every ``BudgetExhausted``
verdict (message, scope, and carried numbers) must match the single-ledger
``BasicAccountant`` running the same sequence.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.accounting import (
    BasicAccountant,
    BudgetExhausted,
    ShardedAccountant,
    stable_shard,
)

ANALYSTS = ["alice", "bob", "carol", "dave", "erin", "frank"]


def replay(accountant, schedule):
    """Run a charge schedule, returning per-step outcomes and final spends."""
    outcomes = []
    for analyst, count, epsilon in schedule:
        try:
            accountant.charge(analyst, count, epsilon)
        except BudgetExhausted as refusal:
            outcomes.append(
                (
                    str(refusal),
                    refusal.analyst,
                    refusal.scope,
                    refusal.requested,
                    refusal.budget,
                    refusal.spent,
                )
            )
        else:
            outcomes.append(None)
    spends = {analyst: accountant.analyst_epsilon(analyst) for analyst in ANALYSTS}
    return outcomes, spends, accountant.global_spent(), accountant.queries_charged


class TestStableShard:
    def test_deterministic_and_in_range(self):
        for name in ANALYSTS:
            index = stable_shard(name, 16)
            assert index == stable_shard(name, 16)
            assert 0 <= index < 16

    def test_single_shard_is_identity(self):
        assert all(stable_shard(name, 1) == 0 for name in ANALYSTS)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            stable_shard("x", 0)


class TestConstruction:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedAccountant(shards=0)
        with pytest.raises(ValueError, match="global_epsilon"):
            ShardedAccountant(global_epsilon=0.0)
        with pytest.raises(ValueError, match="global_epsilon"):
            ShardedAccountant(global_epsilon=float("nan"))
        with pytest.raises(ValueError, match="lease_chunk"):
            ShardedAccountant(global_epsilon=1.0, lease_chunk=-1.0)
        with pytest.raises(ValueError, match="lease_chunk"):
            ShardedAccountant(global_epsilon=1.0, lease_chunk=float("nan"))

    def test_charge_validates_inputs(self):
        ledger = ShardedAccountant()
        with pytest.raises(ValueError, match="count"):
            ledger.charge("a", -1, 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            ledger.charge("a", 1, -0.1)
        with pytest.raises(ValueError, match="epsilon"):
            ledger.charge("a", 1, float("nan"))

    def test_default_lease_chunk(self):
        ledger = ShardedAccountant(global_epsilon=8.0, shards=4)
        assert ledger.lease_chunk == pytest.approx(0.5)


class TestBitIdentity:
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ANALYSTS),
                st.integers(min_value=1, max_value=4),
                st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7]),
            ),
            min_size=1,
            max_size=60,
        ),
        shards=st.sampled_from([1, 2, 3, 8, 16]),
        per_analyst=st.sampled_from([None, 1.5, 3.0]),
        global_eps=st.sampled_from([None, 2.0, 5.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_interleaving_matches_single_ledger(
        self, steps, shards, per_analyst, global_eps
    ):
        single = BasicAccountant(per_analyst, global_eps)
        sharded = ShardedAccountant(per_analyst, global_eps, shards=shards)
        assert replay(single, steps) == replay(sharded, steps)

    def test_tiny_lease_chunks_change_nothing(self):
        # Pathologically small leases force a reconciliation on nearly every
        # charge; verdicts and spends must be unchanged.
        schedule = [(a, 1, 0.3) for a in ANALYSTS for _ in range(5)]
        single = BasicAccountant(2.0, 4.0)
        sharded = ShardedAccountant(2.0, 4.0, shards=4, lease_chunk=1e-9)
        assert replay(single, schedule) == replay(sharded, schedule)

    def test_refund_matches_single_ledger(self):
        single = BasicAccountant(5.0, 10.0)
        sharded = ShardedAccountant(5.0, 10.0, shards=4)
        for ledger in (single, sharded):
            ledger.charge("alice", 4, 0.5)
            ledger.charge("bob", 2, 0.5)
            ledger.refund("alice", 2, 0.5)
        assert single.global_spent() == sharded.global_spent()
        assert single.analyst_epsilon("alice") == sharded.analyst_epsilon("alice")
        assert single.queries_charged == sharded.queries_charged

    def test_refund_requires_history(self):
        sharded = ShardedAccountant(5.0)
        with pytest.raises(ValueError, match="no charges"):
            sharded.refund("ghost", 1, 0.5)


class TestGlobalCap:
    def test_global_refusal_is_exact_at_the_boundary(self):
        # 16 x 0.25 = 4.0 exactly fills the budget; the 17th must refuse
        # with the same numbers the single ledger reports.
        single = BasicAccountant(None, 4.0)
        sharded = ShardedAccountant(None, 4.0, shards=8)
        schedule = [(ANALYSTS[i % len(ANALYSTS)], 1, 0.25) for i in range(17)]
        assert replay(single, schedule) == replay(sharded, schedule)
        assert sharded.global_spent() == single.global_spent() == 4.0

    def test_rejected_charge_leaves_no_trace(self):
        sharded = ShardedAccountant(None, 1.0, shards=4)
        sharded.charge("alice", 2, 0.5)
        with pytest.raises(BudgetExhausted):
            sharded.charge("bob", 1, 0.5)
        assert sharded.analyst_epsilon("bob") == 0.0
        assert sharded.analyst_queries("bob") == 0
        assert sharded.global_spent() == 1.0

    def test_leases_never_overcommit(self):
        # Outstanding leases plus exact spend must stay within the budget:
        # exhaust it via one analyst, then every other analyst must refuse.
        sharded = ShardedAccountant(None, 2.0, shards=16, lease_chunk=0.5)
        for _ in range(4):
            sharded.charge("alice", 1, 0.5)
        for analyst in ANALYSTS[1:]:
            with pytest.raises(BudgetExhausted):
                sharded.charge(analyst, 1, 1e-9)

    def test_per_analyst_refusal_scope(self):
        sharded = ShardedAccountant(1.0, None, shards=4)
        sharded.charge("alice", 2, 0.5)
        with pytest.raises(BudgetExhausted) as caught:
            sharded.charge("alice", 1, 0.5)
        assert caught.value.scope == "analyst"

    def test_max_queries_enforced(self):
        sharded = ShardedAccountant(None, None, 3, shards=4)
        sharded.charge("alice", 3, 0.1)
        with pytest.raises(BudgetExhausted) as caught:
            sharded.charge("alice", 1, 0.1)
        assert caught.value.scope == "queries"


class TestConcurrency:
    def test_parallel_charges_conserve_the_budget(self):
        # Hammer one global budget from many threads; regardless of the
        # interleaving, accepted spend must never exceed the cap and the
        # final ledger must be internally consistent.
        sharded = ShardedAccountant(None, 10.0, shards=8, lease_chunk=0.25)
        accepted = []
        errors = []

        def worker(analyst):
            for _ in range(30):
                try:
                    sharded.charge(analyst, 1, 0.1)
                except BudgetExhausted:
                    pass
                except Exception as unexpected:  # pragma: no cover
                    errors.append(unexpected)
                else:
                    accepted.append(analyst)

        threads = [
            threading.Thread(target=worker, args=(f"analyst-{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        spent = sharded.global_spent()
        assert spent <= 10.0 + 1e-9
        assert spent == pytest.approx(0.1 * len(accepted))
        assert sharded.queries_charged == len(accepted)
