"""Sparse user-item ratings — stand-in for the Netflix Prize dataset.

Narayanan and Shmatikov (paper, Section 1) showed that the movies a
subscriber rated, plus approximate rating dates, make the subscriber nearly
unique in the Netflix release, so partial knowledge from IMDb re-identifies
them.  The attack depends on two structural properties this generator
reproduces:

* **sparsity** — each user rates a tiny fraction of the catalogue, and
* **a long-tailed popularity distribution** — most ratings concentrate on a
  few blockbusters while rare movies carry high identifying weight.

The generator emits a :class:`RatingsData` corpus plus helpers producing the
"anonymized release" (user ids replaced by pseudonyms) and the adversary's
auxiliary knowledge (a few of a target's ratings with noisy values/dates,
imitating cross-referenced IMDb reviews).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.utils.rng import RngSeed, ensure_rng


@dataclass(frozen=True)
class Rating:
    """One (movie, stars, day) observation."""

    movie: int
    stars: int
    day: int


@dataclass(frozen=True)
class RatingsConfig:
    """Parameters of the synthetic ratings corpus.

    Attributes:
        users: number of subscribers.
        movies: catalogue size.
        mean_ratings_per_user: Poisson mean of per-user profile length
            (clipped below at ``min_ratings_per_user``).
        min_ratings_per_user: profile length floor.
        popularity_exponent: Zipf exponent of the movie-popularity law.
        days: length of the observation window (rating dates are uniform).
    """

    users: int = 2_000
    movies: int = 1_000
    mean_ratings_per_user: float = 25.0
    min_ratings_per_user: int = 4
    popularity_exponent: float = 1.1
    days: int = 730

    def __post_init__(self) -> None:
        if self.users <= 0 or self.movies <= 1:
            raise ValueError("need at least one user and two movies")
        if self.mean_ratings_per_user <= 0:
            raise ValueError("mean_ratings_per_user must be positive")
        if self.min_ratings_per_user < 1:
            raise ValueError("min_ratings_per_user must be at least 1")
        if self.days <= 0:
            raise ValueError("days must be positive")


class RatingsData:
    """A ratings corpus: ``user id -> tuple of`` :class:`Rating`.

    User ids in the ground-truth corpus are integers ``0..users-1``; the
    anonymized release (:meth:`anonymized`) replaces them with shuffled
    pseudonyms, which is the disclosure-limitation step Netflix applied.
    """

    def __init__(self, profiles: Mapping[int, Sequence[Rating]], movies: int, days: int):
        if movies <= 0 or days <= 0:
            raise ValueError("movies and days must be positive")
        self.movies = movies
        self.days = days
        self._profiles: dict[int, tuple[Rating, ...]] = {
            user: tuple(ratings) for user, ratings in profiles.items()
        }
        for user, ratings in self._profiles.items():
            seen_movies = {r.movie for r in ratings}
            if len(seen_movies) != len(ratings):
                raise ValueError(f"user {user} rates some movie twice")

    @property
    def users(self) -> list[int]:
        """All user ids."""
        return sorted(self._profiles)

    def profile(self, user: int) -> tuple[Rating, ...]:
        """The ratings of ``user``."""
        return self._profiles[user]

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[tuple[int, tuple[Rating, ...]]]:
        return iter(sorted(self._profiles.items()))

    def total_ratings(self) -> int:
        """Number of (user, movie) observations in the corpus."""
        return sum(len(p) for p in self._profiles.values())

    def movie_popularity(self) -> np.ndarray:
        """Number of raters per movie (index = movie id)."""
        counts = np.zeros(self.movies, dtype=int)
        for ratings in self._profiles.values():
            for rating in ratings:
                counts[rating.movie] += 1
        return counts

    def anonymized(self, rng: RngSeed = None) -> tuple["RatingsData", dict[int, int]]:
        """The public release: pseudonymous ids, plus the secret id map.

        Returns ``(release, true_identity)`` where
        ``true_identity[pseudonym] = original user id`` (the ground truth
        the experiment uses to score re-identification; the attacker never
        sees it).
        """
        generator = ensure_rng(rng)
        originals = self.users
        pseudonyms = list(range(len(originals)))
        generator.shuffle(pseudonyms)
        release = {
            pseudonym: self._profiles[user]
            for pseudonym, user in zip(pseudonyms, originals)
        }
        identity = dict(zip(pseudonyms, originals))
        return RatingsData(release, self.movies, self.days), identity


def generate_ratings(config: RatingsConfig = RatingsConfig(), rng: RngSeed = None) -> RatingsData:
    """Sample a synthetic ratings corpus.

    Movie choice is Zipf by popularity rank; stars are drawn from a
    J-shaped marginal (4s and 5s dominate, as in the Netflix data); dates
    are uniform over the window.
    """
    generator = ensure_rng(rng)
    ranks = np.arange(1, config.movies + 1, dtype=float)
    popularity = ranks ** (-config.popularity_exponent)
    popularity /= popularity.sum()
    star_values = np.array([1, 2, 3, 4, 5])
    star_probs = np.array([0.05, 0.10, 0.20, 0.33, 0.32])

    profiles: dict[int, list[Rating]] = {}
    for user in range(config.users):
        length = max(
            config.min_ratings_per_user,
            int(generator.poisson(config.mean_ratings_per_user)),
        )
        length = min(length, config.movies)
        movies = generator.choice(config.movies, size=length, replace=False, p=popularity)
        stars = generator.choice(star_values, size=length, p=star_probs)
        days = generator.integers(0, config.days, size=length)
        profiles[user] = [
            Rating(int(m), int(s), int(d)) for m, s, d in zip(movies, stars, days)
        ]
    return RatingsData(profiles, config.movies, config.days)


@dataclass(frozen=True)
class AuxiliaryRating:
    """A noisy observation of one of the target's ratings (the IMDb side)."""

    movie: int
    stars: int | None  #: observed stars, or None when only "rated it" is known
    day: int | None  #: observed day +- noise, or None when unknown


def auxiliary_knowledge(
    data: RatingsData,
    user: int,
    known: int = 4,
    star_error: int = 1,
    day_error: int = 14,
    omit_stars: float = 0.0,
    omit_days: float = 0.0,
    rng: RngSeed = None,
) -> list[AuxiliaryRating]:
    """The adversary's partial, noisy view of a target's profile.

    Picks ``known`` of the user's ratings uniformly; perturbs stars by up to
    ``star_error`` and days by up to ``day_error`` (both uniform); and
    independently drops the star/day components with the ``omit_*``
    probabilities.  This mirrors the paper's "little partial knowledge about
    a subscriber's viewings and ratings" gathered from public IMDb reviews.
    """
    if known <= 0:
        raise ValueError("the adversary must know at least one rating")
    generator = ensure_rng(rng)
    profile = data.profile(user)
    if known > len(profile):
        raise ValueError(
            f"user {user} has only {len(profile)} ratings, cannot reveal {known}"
        )
    chosen = generator.choice(len(profile), size=known, replace=False)
    observations = []
    for index in chosen:
        rating = profile[index]
        stars: int | None
        day: int | None
        if generator.random() < omit_stars:
            stars = None
        else:
            stars = int(np.clip(rating.stars + generator.integers(-star_error, star_error + 1), 1, 5))
        if generator.random() < omit_days:
            day = None
        else:
            day = int(
                np.clip(rating.day + generator.integers(-day_error, day_error + 1), 0, data.days - 1)
            )
        observations.append(AuxiliaryRating(rating.movie, stars, day))
    return observations
