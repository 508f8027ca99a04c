"""The synthesizer interface and the release record it produces.

A :class:`Synthesizer` turns a private dataset into a
:class:`SyntheticRelease`: synthetic microdata plus the released histogram
it was expanded from and — crucially — the :class:`~repro.privacy.kernels.
MechanismSpec` that is the release's auditable identity.  The spec carries
the privacy spend the synthesis costs; :meth:`Synthesizer.synthesize`
charges that spend through a :class:`~repro.privacy.accounting.
PrivacyAccountant` *before* any noise is drawn, all-or-nothing: a refused
charge raises :class:`~repro.privacy.accounting.BudgetExhausted` and
nothing is synthesized; a synthesis that fails after the charge rolls the
reservation back.

The one-release-one-spec discipline mirrors the query layer: the epsilon
the accountant recorded, the kernel the synthesizer sampled, and the claim
an auditor would verify are the same object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.privacy.accounting import PrivacyAccountant
from repro.privacy.kernels import MechanismSpec
from repro.synth.domain import CellDomain
from repro.utils.rng import RngSeed, ensure_rng

__all__ = ["SyntheticRelease", "Synthesizer"]


@dataclass(frozen=True)
class SyntheticRelease:
    """One published synthetic dataset and its provenance.

    Attributes:
        data: the synthetic microdata (safe to hand to an analyst — or an
            attacker; :mod:`repro.synth.evaluation` does exactly that).
        spec: the auditable mechanism identity; ``spec.spend`` is what the
            accountant was charged for this release.
        histogram: the released integer cell histogram ``data`` was expanded
            from (``None`` for synthesizers that generate records directly).
        domain: the cell domain ``histogram`` is indexed by.
        error_trace: optional per-round workload error of the fitting loop
            (MWEM records it; see :mod:`repro.synth.mwem`).
    """

    data: Dataset
    spec: MechanismSpec
    histogram: np.ndarray | None = None
    domain: CellDomain | None = None
    error_trace: tuple[float, ...] = field(default=(), compare=False)

    def __len__(self) -> int:
        return len(self.data)


class Synthesizer(ABC):
    """Base class of every synthetic-data generator.

    Subclasses implement :meth:`_synthesize` (the generation itself) and
    the :attr:`spec` property (the mechanism identity, including the spend
    to charge); :meth:`synthesize` wraps both with the accountant
    discipline shared by all generators.
    """

    #: Short stable identifier, e.g. ``"mwem"`` — used in spec names.
    name: str = "synthesizer"

    @property
    @abstractmethod
    def spec(self) -> MechanismSpec:
        """The release's mechanism identity (kernel, spend, DP claim)."""

    @abstractmethod
    def _synthesize(
        self, dataset: Dataset, rng: np.random.Generator
    ) -> SyntheticRelease:
        """Generate the release; all randomness comes from ``rng``."""

    def synthesize(
        self,
        dataset: Dataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngSeed = None,
    ) -> SyntheticRelease:
        """Produce one release, charging ``accountant`` all-or-nothing.

        The whole release is one charge of ``spec.spend`` (synthesis is a
        single mechanism invocation however many rounds it runs inside).
        The reservation happens *before* generation — a refused budget
        leaks nothing, not even the random-stream state — and is rolled
        back if generation itself fails.
        """
        generator = ensure_rng(rng)
        spec = self.spec
        if accountant is not None:
            accountant.reserve(1, spec.spend.epsilon, spec.spend.delta)
        try:
            release = self._synthesize(dataset, generator)
        except BaseException:
            if accountant is not None:
                accountant.rollback(1, spec.spend.epsilon, spec.spend.delta)
            raise
        return release

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec.name!r})"
