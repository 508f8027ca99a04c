"""Mechanisms ``M : X^n -> Y`` for the PSO security game.

These wrap the library's substrates behind the single interface the game
(Definition 2.4) quantifies over.  The roster mirrors the paper's cast:

* :class:`CountMechanism` — the paper's ``M#q`` (Theorem 2.5);
* :class:`PostProcessedMechanism` — ``f(M(x))`` (Theorem 2.6);
* :class:`ComposedMechanism` — ``(M_1(x), ..., M_l(x))`` (Theorems 2.7/2.8);
* :class:`DPCountMechanism` — the Laplace count (Theorems 1.3 and 2.9);
* :class:`KAnonymityMechanism` — a k-anonymizer release (Theorem 2.10);
* :class:`ConstantMechanism` / :class:`IdentityMechanism` — the two
  privacy extremes, for calibrating experiments.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.core.predicate import Predicate
from repro.data.dataset import Dataset
from repro.dp.laplace import LaplaceMechanism
from repro.utils.rng import RngSeed, ensure_rng


class Mechanism(ABC):
    """An anonymization mechanism in the sense of Section 2.2."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable mechanism name for reports."""

    @abstractmethod
    def release(self, dataset: Dataset, rng: RngSeed = None) -> object:
        """Compute the published output ``y = M(x)``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class CountMechanism(Mechanism):
    """The paper's counting mechanism ``M#q(x) = sum_i q(x_i)``.

    Exact — deliberately not differentially private — yet PSO-secure
    (Theorem 2.5): a single number reveals too little to isolate with a
    negligible-weight predicate.
    """

    def __init__(self, query: Predicate):
        self.query = query

    @property
    def name(self) -> str:
        return f"M#[{self.query.description}]"

    def release(self, dataset: Dataset, rng: RngSeed = None) -> int:
        return dataset.count(self.query)


class DPCountMechanism(Mechanism):
    """An epsilon-DP Laplace count of ``q``-satisfying records (Thm 1.3)."""

    def __init__(self, query: Predicate, epsilon: float):
        self.query = query
        self.laplace = LaplaceMechanism(epsilon, sensitivity=1.0)

    @property
    def epsilon(self) -> float:
        """The privacy-loss parameter."""
        return self.laplace.epsilon

    @property
    def name(self) -> str:
        return f"Lap-count(eps={self.epsilon})[{self.query.description}]"

    def release(self, dataset: Dataset, rng: RngSeed = None) -> float:
        return self.laplace.release(dataset.count(self.query), rng)


class PostProcessedMechanism(Mechanism):
    """``x -> f(M(x))`` — the object of Theorem 2.6.

    Post-processing cannot create PSO risk: the processed output is a
    function of information the attacker already had.
    """

    def __init__(self, inner: Mechanism, fn: Callable[[object], object], label: str = "f"):
        self.inner = inner
        self.fn = fn
        self.label = label

    @property
    def name(self) -> str:
        return f"{self.label}({self.inner.name})"

    def release(self, dataset: Dataset, rng: RngSeed = None) -> object:
        return self.fn(self.inner.release(dataset, rng))


class ComposedMechanism(Mechanism):
    """``x -> (M_1(x), ..., M_l(x))`` — the object of Theorems 2.7/2.8.

    Each component sees the same dataset; the output is the tuple of
    component outputs.  Independent randomness per component.
    """

    def __init__(self, mechanisms: Sequence[Mechanism]):
        if not mechanisms:
            raise ValueError("need at least one component mechanism")
        self.mechanisms = tuple(mechanisms)

    def __len__(self) -> int:
        return len(self.mechanisms)

    @property
    def name(self) -> str:
        if len(self.mechanisms) <= 3:
            inner = ", ".join(m.name for m in self.mechanisms)
        else:
            inner = f"{self.mechanisms[0].name}, ... x{len(self.mechanisms)}"
        return f"({inner})"

    def release(self, dataset: Dataset, rng: RngSeed = None) -> tuple:
        generator = ensure_rng(rng)
        return tuple(m.release(dataset, generator) for m in self.mechanisms)


class KAnonymityMechanism(Mechanism):
    """Release a k-anonymized version of the dataset (Theorem 2.10's target).

    ``anonymizer`` is any object with an ``anonymize(dataset)`` method
    returning a :class:`~repro.data.generalized.GeneralizedDataset` —
    the agreement anonymizer and Mondrian both qualify.
    """

    def __init__(self, anonymizer, label: str | None = None):
        if not hasattr(anonymizer, "anonymize"):
            raise TypeError("anonymizer must expose an anonymize(dataset) method")
        self.anonymizer = anonymizer
        self.label = label or type(anonymizer).__name__

    @property
    def name(self) -> str:
        return f"{self.label}(k={getattr(self.anonymizer, 'k', '?')})"

    def release(self, dataset: Dataset, rng: RngSeed = None) -> object:
        return self.anonymizer.anonymize(dataset)


class ConstantMechanism(Mechanism):
    """Ignores the data entirely — the maximally private mechanism.

    Against it, *any* attacker degenerates to the trivial (data-independent)
    attacker of Section 2.2; used to calibrate the ~37% baseline.
    """

    def __init__(self, value: object = None):
        self.value = value

    @property
    def name(self) -> str:
        return "constant"

    def release(self, dataset: Dataset, rng: RngSeed = None) -> object:
        return self.value


class IdentityMechanism(Mechanism):
    """Releases the raw dataset — the maximally non-private mechanism.

    An attacker seeing ``x`` itself singles out at will (pick any unique
    record, hash it down to negligible weight); the game should report
    success probability near 1.  Exists to sanity-check the harness.
    """

    @property
    def name(self) -> str:
        return "identity"

    def release(self, dataset: Dataset, rng: RngSeed = None) -> Dataset:
        return dataset
