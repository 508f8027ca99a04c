"""Narayanan-Shmatikov sparse-data fingerprinting (the Netflix attack).

"Little partial knowledge about a subscriber's viewings and ratings, when
matched with publicly available movie ratings from [IMDb], can lead to the
exact re-identification of the subscriber (or to a small number of
candidate identities, one of which is correct)."

The algorithm is the *Scoreboard-RH* heuristic of [33]:

* every auxiliary observation contributes a similarity term per candidate,
  downweighted by the movie's popularity (rare movies identify, hits
  don't);
* the best-scoring candidate is claimed only when its lead over the
  runner-up exceeds ``eccentricity`` standard deviations of the score
  distribution — the paper's "or to a small number of candidate
  identities" hedge made quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.ratings import AuxiliaryRating, Rating, RatingsData, auxiliary_knowledge
from repro.utils.rng import RngSeed, ensure_rng, spawn_rngs

#: Date mismatch scale (days) in the similarity kernel.
DAY_SCALE = 30.0
#: Star mismatch scale in the similarity kernel.
STAR_SCALE = 1.5


def similarity_score(
    profile: Sequence[Rating],
    aux: Sequence[AuxiliaryRating],
    popularity: np.ndarray,
) -> float:
    """Scoreboard similarity between a candidate profile and the aux info.

    ``sum_over_aux weight(movie) * sim(observation, profile entry)`` where
    ``weight = 1 / log2(1 + raters)`` and ``sim`` decays exponentially in
    the date and star discrepancies; a movie absent from the candidate's
    profile contributes nothing.
    """
    by_movie = {rating.movie: rating for rating in profile}
    score = 0.0
    for observation in aux:
        rating = by_movie.get(observation.movie)
        if rating is None:
            continue
        raters = max(int(popularity[observation.movie]), 1)
        weight = 1.0 / np.log2(1.0 + raters)
        sim = 1.0
        if observation.day is not None:
            sim *= float(np.exp(-abs(observation.day - rating.day) / DAY_SCALE))
        if observation.stars is not None:
            sim *= float(np.exp(-abs(observation.stars - rating.stars) / STAR_SCALE))
        score += weight * sim
    return score


def deanonymize(
    release: RatingsData,
    aux: Sequence[AuxiliaryRating],
    eccentricity: float = 1.5,
) -> int | None:
    """Run Scoreboard-RH: return the claimed pseudonym, or None (abstain).

    Claims the top-scoring candidate only when ``(best - second) /
    sigma(scores) >= eccentricity``; below that the match is deemed
    ambiguous, trading recall for precision exactly as in [33].
    """
    if not aux:
        raise ValueError("need at least one auxiliary observation")
    if eccentricity < 0:
        raise ValueError("eccentricity must be non-negative")
    popularity = release.movie_popularity()
    users = release.users
    scores = np.array(
        [similarity_score(release.profile(user), aux, popularity) for user in users]
    )
    if len(users) == 1:
        return users[0]
    order = np.argsort(scores)[::-1]
    best, second = scores[order[0]], scores[order[1]]
    sigma = float(scores.std())
    if sigma == 0.0 or (best - second) / sigma < eccentricity:
        return None
    return users[int(order[0])]


@dataclass(frozen=True)
class FingerprintResult:
    """Aggregate outcome of a fingerprinting experiment.

    Attributes:
        targets: number of attacked subscribers.
        claimed: attacks that produced a (non-abstaining) claim.
        correct: claims that named the right subscriber.
    """

    targets: int
    claimed: int
    correct: int

    @property
    def recall(self) -> float:
        """Correct re-identifications over all targets."""
        if self.targets == 0:
            raise ValueError("no targets attacked")
        return self.correct / self.targets

    @property
    def precision(self) -> float:
        """Correct re-identifications over all claims."""
        if self.claimed == 0:
            return 0.0
        return self.correct / self.claimed

    def __str__(self) -> str:
        return (
            f"FingerprintResult: {self.correct}/{self.targets} correct "
            f"({self.recall:.1%} recall, {self.precision:.1%} precision on "
            f"{self.claimed} claims)"
        )


def fingerprint_experiment(
    data: RatingsData,
    targets: int = 50,
    known: int = 4,
    star_error: int = 1,
    day_error: int = 14,
    eccentricity: float = 1.5,
    rng: RngSeed = None,
) -> FingerprintResult:
    """Attack ``targets`` random subscribers of an anonymized release.

    For each target: build noisy auxiliary knowledge of ``known`` ratings,
    run :func:`deanonymize` against the pseudonymous release, and score the
    claim against the (hidden) identity map.
    """
    if targets <= 0:
        raise ValueError("targets must be positive")
    generator = ensure_rng(rng)
    release, identity = data.anonymized(generator)
    true_pseudonym = {user: pseudonym for pseudonym, user in identity.items()}

    eligible = [user for user in data.users if len(data.profile(user)) >= known]
    if len(eligible) < targets:
        raise ValueError(
            f"only {len(eligible)} subscribers have >= {known} ratings; "
            f"cannot attack {targets}"
        )
    chosen = generator.choice(len(eligible), size=targets, replace=False)
    streams = spawn_rngs(generator, targets)

    claimed = correct = 0
    for stream, index in zip(streams, chosen):
        user = eligible[int(index)]
        aux = auxiliary_knowledge(
            data,
            user,
            known=known,
            star_error=star_error,
            day_error=day_error,
            rng=stream,
        )
        claim = deanonymize(release, aux, eccentricity=eccentricity)
        if claim is None:
            continue
        claimed += 1
        if claim == true_pseudonym[user]:
            correct += 1
    return FingerprintResult(targets=targets, claimed=claimed, correct=correct)
