"""Tests for exact unlearning and the deletion-compliance check."""

import pytest

from repro.attacks.extraction import extract_secret
from repro.legal.deletion import deletion_certificate, verify_exact_deletion
from repro.lm.ngram import NgramLanguageModel, synthetic_corpus


class TestUnfit:
    def test_unfit_equals_never_trained(self):
        corpus = synthetic_corpus(30, rng=0)
        model = NgramLanguageModel(order=4).fit(corpus)
        model.unfit(corpus[7])
        reference = NgramLanguageModel(order=4).fit(
            corpus[:7] + corpus[8:]
        )
        assert model.equals_model(reference)

    def test_unfit_unknown_document_rejected_without_mutation(self):
        corpus = synthetic_corpus(10, rng=1)
        model = NgramLanguageModel(order=4).fit(corpus)
        before = NgramLanguageModel(order=4).fit(corpus)
        with pytest.raises(ValueError):
            model.unfit("zzz qqq never trained zzz")
        assert model.equals_model(before)  # failed unfit left state intact

    def test_unfit_duplicate_document_removes_one_copy(self):
        model = NgramLanguageModel(order=3).fit(["abc abc", "abc abc"])
        model.unfit("abc abc")
        reference = NgramLanguageModel(order=3).fit(["abc abc"])
        assert model.equals_model(reference)

    def test_dp_model_refuses_unlearning(self):
        model = NgramLanguageModel(order=3).fit(
            ["abc"], dp_epsilon_per_count=1.0, rng=0
        )
        with pytest.raises(RuntimeError):
            model.unfit("abc")

    def test_equals_model_detects_config_differences(self):
        a = NgramLanguageModel(order=3).fit(["abc"])
        b = NgramLanguageModel(order=4).fit(["abc"])
        assert not a.equals_model(b)


class TestDeletionCompliance:
    def test_verification_passes(self):
        corpus = synthetic_corpus(20, rng=2)
        assert verify_exact_deletion(corpus, 3)

    def test_certificate_is_evidence(self):
        corpus = synthetic_corpus(15, rng=3)
        certificate = deletion_certificate(corpus, 0)
        assert certificate.passed
        assert "deletion" in certificate.theorem
        assert certificate.measurements["corpus_documents"] == 15

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            verify_exact_deletion(["a"], 5)

    def test_deletion_kills_extraction(self):
        """The right to be forgotten, attack-side: the auto-complete dies."""
        prefix = "my secret code is "
        secret = "7341"
        corpus = synthetic_corpus(100, rng=4) + [prefix + secret]
        model = NgramLanguageModel(order=6).fit(corpus)
        assert extract_secret(model, prefix, 4) == secret  # memorized
        model.unfit(prefix + secret)
        assert extract_secret(model, prefix, 4) != secret  # forgotten


class TestDeletionInThePipeline:
    """The erasure check's probe model, configured by ``order``."""

    def test_custom_order_changes_the_probe_model(self):
        corpus = synthetic_corpus(10, rng=6)
        assert verify_exact_deletion(corpus, 1, order=2)
        assert verify_exact_deletion(corpus, 1, order=7)

    def test_certificate_order_recorded(self):
        corpus = synthetic_corpus(8, rng=7)
        certificate = deletion_certificate(corpus, 4, order=3)
        assert certificate.measurements["model_order"] == 3
        assert certificate.measurements["deleted_index"] == 4
