"""Tests for Narayanan-Shmatikov fingerprinting."""

import pytest

from repro.attacks.fingerprint import (
    deanonymize,
    fingerprint_experiment,
    similarity_score,
)
from repro.data.ratings import (
    AuxiliaryRating,
    Rating,
    RatingsConfig,
    generate_ratings,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_ratings(RatingsConfig(users=300, movies=400), rng=0)


class TestSimilarityScore:
    def test_perfect_match_scores_highest(self, corpus):
        popularity = corpus.movie_popularity()
        profile = corpus.profile(3)
        aux = [AuxiliaryRating(r.movie, r.stars, r.day) for r in profile[:4]]
        own = similarity_score(profile, aux, popularity)
        other = similarity_score(corpus.profile(4), aux, popularity)
        assert own > other

    def test_rare_movies_weigh_more(self):
        import numpy as np

        popularity = np.array([1000, 1])
        profile = [Rating(0, 5, 10), Rating(1, 5, 10)]
        hit_popular = similarity_score(profile, [AuxiliaryRating(0, 5, 10)], popularity)
        hit_rare = similarity_score(profile, [AuxiliaryRating(1, 5, 10)], popularity)
        assert hit_rare > hit_popular

    def test_missing_fields_still_score(self, corpus):
        popularity = corpus.movie_popularity()
        profile = corpus.profile(5)
        aux = [AuxiliaryRating(profile[0].movie, None, None)]
        assert similarity_score(profile, aux, popularity) > 0

    def test_unrated_movie_contributes_nothing(self, corpus):
        popularity = corpus.movie_popularity()
        profile = corpus.profile(5)
        missing_movie = next(
            m for m in range(corpus.movies) if m not in {r.movie for r in profile}
        )
        aux = [AuxiliaryRating(missing_movie, 5, 100)]
        assert similarity_score(profile, aux, popularity) == 0.0


class TestDeanonymize:
    def test_recovers_target_with_exact_knowledge(self, corpus):
        release, identity = corpus.anonymized(rng=1)
        true_pseudonym = {user: p for p, user in identity.items()}
        target = 7
        profile = corpus.profile(target)
        aux = [AuxiliaryRating(r.movie, r.stars, r.day) for r in profile[:4]]
        assert deanonymize(release, aux) == true_pseudonym[target]

    def test_abstains_on_uninformative_aux(self, corpus):
        release, _identity = corpus.anonymized(rng=2)
        # A single blockbuster rating is shared by many users.
        popularity = corpus.movie_popularity()
        blockbuster = int(popularity.argmax())
        aux = [AuxiliaryRating(blockbuster, None, None)]
        assert deanonymize(release, aux, eccentricity=1.5) is None

    def test_empty_aux_rejected(self, corpus):
        release, _ = corpus.anonymized(rng=3)
        with pytest.raises(ValueError):
            deanonymize(release, [])

    def test_negative_eccentricity_rejected(self, corpus):
        release, _ = corpus.anonymized(rng=4)
        with pytest.raises(ValueError):
            deanonymize(release, [AuxiliaryRating(0, 5, 0)], eccentricity=-1)


class TestExperiment:
    def test_high_recall_with_enough_knowledge(self, corpus):
        result = fingerprint_experiment(corpus, targets=30, known=6, rng=5)
        assert result.recall >= 0.8
        assert result.precision >= 0.9

    def test_recall_grows_with_knowledge(self, corpus):
        low = fingerprint_experiment(corpus, targets=30, known=2, rng=6)
        high = fingerprint_experiment(corpus, targets=30, known=8, rng=6)
        assert high.recall >= low.recall

    def test_counts_consistent(self, corpus):
        result = fingerprint_experiment(corpus, targets=20, known=4, rng=7)
        assert result.correct <= result.claimed <= result.targets

    def test_invalid_targets(self, corpus):
        with pytest.raises(ValueError):
            fingerprint_experiment(corpus, targets=0)

    def test_too_much_required_knowledge(self, corpus):
        with pytest.raises(ValueError):
            fingerprint_experiment(corpus, targets=10, known=10_000)


class TestCandidateIdentities:
    def test_target_in_small_candidate_set(self, corpus):
        from repro.attacks.fingerprint import candidate_identities

        release, identity = corpus.anonymized(rng=10)
        true_pseudonym = {user: p for p, user in identity.items()}
        target = 11
        profile = corpus.profile(target)
        # Weak auxiliary knowledge: only two ratings, dates omitted.
        aux = [AuxiliaryRating(r.movie, r.stars, None) for r in profile[:2]]
        candidates = candidate_identities(release, aux, top=5)
        assert len(candidates) == 5
        assert true_pseudonym[target] in {user for user, _score in candidates}
        scores = [score for _user, score in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_validation(self, corpus):
        from repro.attacks.fingerprint import candidate_identities

        release, _ = corpus.anonymized(rng=11)
        with pytest.raises(ValueError):
            candidate_identities(release, [])
        with pytest.raises(ValueError):
            candidate_identities(release, [AuxiliaryRating(0, 5, 0)], top=0)
