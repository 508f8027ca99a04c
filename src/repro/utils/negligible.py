"""Finite-``n`` renderings of the paper's asymptotic quantities.

The PSO definition (Def. 2.4 in the paper) speaks of predicates whose weight
is a *negligible* function of ``n`` and of attack success probabilities that
must be negligible.  At a concrete dataset size those asymptotics need an
operational reading; this module centralizes it so every experiment uses the
same convention:

* A weight is treated as "negligible at n" when it falls below
  ``n**-negligible_exponent`` (default exponent 2 — strictly below the 1/n
  weight at which a data-independent predicate isolates best).
* The trivial-attacker yardstick is the closed-form isolation probability
  ``n * w * (1 - w)**(n - 1)`` from Section 2.2 of the paper, maximized at
  ``w = 1/n`` where it approaches ``1/e ~ 36.8%``.
"""

from __future__ import annotations

import numpy as np

#: Default exponent c in the finite-n negligibility cutoff n**-c.
DEFAULT_NEGLIGIBLE_EXPONENT = 2.0


def negligible_weight_threshold(n: int, exponent: float = DEFAULT_NEGLIGIBLE_EXPONENT) -> float:
    """Finite-``n`` cutoff under which a predicate weight counts as negligible.

    The paper requires ``w_D(p) = negl(n)``; concretely we use ``n**-c`` with
    ``c`` = ``exponent``.  The default ``c = 2`` sits well below the ``1/n``
    weight at which data-independent isolation peaks, so a predicate passing
    this test cannot be explained by the trivial-attacker phenomenon alone.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if exponent <= 1.0:
        raise ValueError(
            "exponent must exceed 1 so the threshold is below the trivial "
            f"attacker's optimum weight 1/n; got {exponent}"
        )
    return float(n) ** (-exponent)


def isolation_probability(n: int, weight: float) -> float:
    """Probability that a weight-``w`` data-independent predicate isolates.

    This is the paper's Section 2.2 expression ``n·w·(1-w)^(n-1)``: with
    records drawn i.i.d., a predicate of weight ``w`` chosen independently of
    the data matches exactly one of ``n`` records with binomial probability
    Binom(n, w){k=1}.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if weight in (0.0, 1.0):
        return 0.0 if n > 1 or weight == 0.0 else 1.0
    # Compute in log-space for numerical stability at large n.
    log_p = np.log(n) + np.log(weight) + (n - 1) * np.log1p(-weight)
    return float(np.exp(log_p))


def optimal_isolation_weight(n: int) -> float:
    """Weight maximizing the trivial attacker's isolation probability (= 1/n)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1.0 / n


def baseline_isolation_probability(n: int) -> float:
    """Isolation probability of the *best* data-independent predicate.

    Evaluates ``isolation_probability(n, 1/n) = (1 - 1/n)^(n-1)``, which
    decreases towards ``1/e ~ 0.3679`` — the paper's "~37%" benchmark.
    """
    return isolation_probability(n, optimal_isolation_weight(n))
