"""Closed-form companions to the PSO experiments.

The experiments overlay Monte-Carlo measurements on analytic predictions;
this module is where those predictions live, so tests can assert the two
agree and readers can see exactly which formula each experiment is tracking.

All formulas follow Section 2 of the paper and the constructions in
:mod:`repro.core.attackers` / :mod:`repro.anonymity.agreement`.
"""

from __future__ import annotations

import math


def refinement_success_probability(class_size: int) -> float:
    """Theorem 2.10's success rate: ``(1 - 1/k')^(k'-1)``.

    A fresh weight-``1/k'`` predicate isolates within a class of ``k'``
    records with exactly this probability; it decreases from 1/2 (k' = 2)
    towards ``1/e ~ 36.8%`` — the paper's "approximately 37%".
    """
    if class_size < 1:
        raise ValueError("class_size must be positive")
    if class_size == 1:
        return 1.0  # the singleton class is already isolated
    return (1.0 - 1.0 / class_size) ** (class_size - 1)


def expected_agreement_bits(width: int, k: int, n: int) -> float:
    """Expected per-class agreement of the sorted agreement anonymizer.

    A group of ``k`` uniform ``width``-bit records agrees on a random
    attribute with probability ``2^(1-k)``; sorting additionally aligns
    roughly ``log2(n / k)`` prefix bits.  The released class predicate's
    weight is about ``2^-agreement``, which is what must dip below the
    negligibility cutoff for Theorem 2.10's attack to qualify.
    """
    if width <= 0 or k <= 0 or n <= 0:
        raise ValueError("width, k and n must be positive")
    prefix = max(0.0, math.log2(max(n / k, 1.0)))
    prefix = min(prefix, float(width))
    random_agreement = (width - prefix) * 2.0 ** (1 - k)
    return prefix + random_agreement
