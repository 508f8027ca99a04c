"""Character n-gram language models with optional DP training.

The model estimates ``P(char | previous order-1 chars)`` from counts with
add-k smoothing.  Deliberately simple: the secret-sharer phenomenon [11]
needs nothing more than a model whose parameters are (functions of)
training counts, because memorization *is* those counts.

DP training: each training document's contribution to every
(context, char) count is clamped to 1, so each count has sensitivity 1
under document addition/removal, and Laplace noise of scale
``1/epsilon_per_count`` makes the released count table epsilon-DP per count
(basic composition across the counts a document touches is reported by
:meth:`NgramLanguageModel.dp_epsilon_spent`).  This is a teaching-grade
accountant — the point is the measurable memorization/extraction tradeoff,
not a state-of-the-art DP-LM.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.privacy.kernels import LaplaceKernel
from repro.utils.rng import RngSeed, ensure_rng

#: Padding character prepended to every document (never generated).
PAD = "\x00"


class NgramLanguageModel:
    """An order-``n`` character model: P(c | last n-1 characters).

    Args:
        order: the n in n-gram (>= 2 for any context at all).
        alphabet: the output alphabet; training text must stay within it.
        smoothing: add-k smoothing constant (> 0 keeps likelihoods finite).
    """

    def __init__(self, order: int = 5, alphabet: str | None = None, smoothing: float = 0.1):
        if order < 2:
            raise ValueError(f"order must be at least 2, got {order}")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.order = int(order)
        self.alphabet = alphabet or "abcdefghijklmnopqrstuvwxyz0123456789 .-"
        if PAD in self.alphabet:
            raise ValueError("the padding character cannot be in the alphabet")
        self.smoothing = float(smoothing)
        self._char_index = {c: i for i, c in enumerate(self.alphabet)}
        # counts[context] = vector of per-character counts.
        self._counts: dict[str, np.ndarray] = defaultdict(
            lambda: np.zeros(len(self.alphabet), dtype=float)
        )
        self._dp_epsilon_per_count: float | None = None

    # -- training -------------------------------------------------------------

    def fit(
        self,
        corpus: Iterable[str],
        dp_epsilon_per_count: float | None = None,
        rng: RngSeed = None,
    ) -> "NgramLanguageModel":
        """Train on ``corpus`` (one string per document); returns self.

        With ``dp_epsilon_per_count`` set, per-document contributions are
        clamped to one per (context, char) cell and Laplace noise of scale
        ``1/epsilon`` is added to every touched cell (negative counts are
        clipped after noising — a post-processing step that preserves DP).
        """
        generator = ensure_rng(rng)
        clamped = dp_epsilon_per_count is not None
        if clamped and dp_epsilon_per_count <= 0:
            raise ValueError("dp_epsilon_per_count must be positive")
        for document in corpus:
            self._validate_text(document)
            contributions: dict[tuple[str, str], int] = {}
            padded = PAD * (self.order - 1) + document
            for position in range(len(document)):
                context = padded[position : position + self.order - 1]
                char = document[position]
                key = (context, char)
                if clamped:
                    contributions[key] = 1
                else:
                    contributions[key] = contributions.get(key, 0) + 1
            for (context, char), count in contributions.items():
                self._counts[context][self._char_index[char]] += count
        if clamped:
            self._dp_epsilon_per_count = float(dp_epsilon_per_count)
            kernel = LaplaceKernel.calibrate(float(dp_epsilon_per_count))
            for context in list(self._counts):
                noisy = self._counts[context] + kernel.sample_n(
                    generator, len(self.alphabet)
                )
                self._counts[context] = np.clip(noisy, 0.0, None)
        return self

    def _validate_text(self, text: str) -> None:
        bad = set(text) - set(self.alphabet)
        if bad:
            raise ValueError(f"text contains out-of-alphabet characters: {sorted(bad)!r}")

    def unfit(self, document: str) -> "NgramLanguageModel":
        """Exactly unlearn one previously-trained document; returns self.

        Count-based models admit *exact* deletion: subtracting a document's
        contributions leaves the model bit-identical to one never trained
        on it — the gold standard of the data-deletion formalization the
        paper cites ([25], the right to be forgotten).  Only valid for
        non-DP models (noisy counts are not invertible) and for documents
        actually in the training set; over-deletion is detected by counts
        going negative.

        Raises:
            RuntimeError: on DP-trained models.
            ValueError: when the document's counts are not present.
        """
        if self._dp_epsilon_per_count is not None:
            raise RuntimeError(
                "DP-trained models cannot be exactly unlearned (counts are "
                "noisy); retrain without the document instead"
            )
        self._validate_text(document)
        padded = PAD * (self.order - 1) + document
        removals: dict[tuple[str, str], int] = {}
        for position in range(len(document)):
            context = padded[position : position + self.order - 1]
            char = document[position]
            removals[(context, char)] = removals.get((context, char), 0) + 1
        # Validate before mutating so a failed unfit leaves the model intact.
        for (context, char), count in removals.items():
            current = self._counts.get(context)
            if current is None or current[self._char_index[char]] < count:
                raise ValueError(
                    "document was not (fully) in the training set; cannot unlearn"
                )
        for (context, char), count in removals.items():
            self._counts[context][self._char_index[char]] -= count
            if not self._counts[context].any():
                del self._counts[context]
        return self

    def equals_model(self, other: "NgramLanguageModel") -> bool:
        """Whether two models have identical parameters (count tables)."""
        if (
            self.order != other.order
            or self.alphabet != other.alphabet
            or self.smoothing != other.smoothing
        ):
            return False
        contexts = set(self._counts) | set(other._counts)
        import numpy as _np

        zero = _np.zeros(len(self.alphabet))
        return all(
            _np.array_equal(
                self._counts.get(context, zero), other._counts.get(context, zero)
            )
            for context in contexts
        )

    def dp_epsilon_spent(self, document_length: int) -> float | None:
        """Basic-composition budget for one document of the given length.

        A document of L characters touches at most L (context, char) cells,
        each noised at ``epsilon_per_count`` — so its total privacy loss is
        at most ``L * epsilon_per_count``.  None when trained without DP.
        """
        if self._dp_epsilon_per_count is None:
            return None
        return document_length * self._dp_epsilon_per_count

    # -- inference -------------------------------------------------------------

    def next_distribution(self, context: str) -> np.ndarray:
        """P(next char | context), as a vector aligned with the alphabet."""
        trimmed = (PAD * (self.order - 1) + context)[-(self.order - 1) :]
        counts = self._counts.get(trimmed)
        if counts is None:
            counts = np.zeros(len(self.alphabet))
        smoothed = counts + self.smoothing
        return smoothed / smoothed.sum()

    def log_likelihood(self, text: str, context: str = "") -> float:
        """Natural-log likelihood of ``text`` following ``context``."""
        self._validate_text(text)
        total = 0.0
        running = context
        for char in text:
            distribution = self.next_distribution(running)
            total += math.log(distribution[self._char_index[char]])
            running += char
        return total

    def perplexity(self, text: str) -> float:
        """Per-character perplexity of ``text``."""
        if not text:
            raise ValueError("perplexity of empty text is undefined")
        return math.exp(-self.log_likelihood(text) / len(text))

    def generate(
        self,
        prefix: str,
        length: int,
        restrict_to: str | None = None,
        mode: str = "greedy",
        rng: RngSeed = None,
    ) -> str:
        """Auto-complete ``prefix`` with ``length`` characters.

        ``restrict_to`` limits generation to a sub-alphabet (e.g. digits —
        the attacker knows the secret's format); ``mode`` is ``"greedy"``
        (argmax) or ``"sample"``.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        if mode not in ("greedy", "sample"):
            raise ValueError(f"unknown generation mode: {mode!r}")
        allowed = restrict_to or self.alphabet
        allowed_indices = [self._char_index[c] for c in allowed]
        generator = ensure_rng(rng)
        text = prefix
        for _ in range(length):
            distribution = self.next_distribution(text)
            restricted = distribution[allowed_indices]
            restricted = restricted / restricted.sum()
            if mode == "greedy":
                choice = int(np.argmax(restricted))
            else:
                choice = int(generator.choice(len(allowed_indices), p=restricted))
            text += allowed[choice]
        return text[len(prefix) :]


#: Word stock for the synthetic corpus (kept small and lowercase).
_WORDS = (
    "the quick brown fox jumps over lazy dog while rain falls on green "
    "hills and rivers run toward distant mountains under quiet evening "
    "skies people walk along old streets past small shops full of bread "
    "books flowers music children play near tall trees birds sing songs"
).split()


def synthetic_corpus(
    documents: int,
    words_per_document: int = 12,
    rng: RngSeed = None,
) -> list[str]:
    """Natural-ish filler text for memorization experiments.

    Random word sequences from a fixed stock: enough structure that the
    model learns real statistics, no structure that collides with the
    planted canary.
    """
    if documents <= 0 or words_per_document <= 0:
        raise ValueError("documents and words_per_document must be positive")
    generator = ensure_rng(rng)
    corpus = []
    for _ in range(documents):
        indices = generator.integers(0, len(_WORDS), size=words_per_document)
        corpus.append(" ".join(_WORDS[i] for i in indices))
    return corpus
