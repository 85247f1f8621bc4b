"""Serving-layer residency: metrics observability and scoring parity."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticLanguage
from repro.data.tasks import make_task
from repro.models.gpt import GPT, GPT_SIZES
from repro.models.moe import MoEGPT
from repro.nn.residency import fusion_disabled
from repro.serve.compile import compile_model
from repro.serve.metrics import SessionMetrics, cache_stats


@pytest.fixture(scope="module")
def serving():
    lang = SyntheticLanguage(seed=0)
    model = GPT(lang.vocab_size, GPT_SIZES["GPT-XS"], rng=np.random.default_rng(0))
    compiled = compile_model(model, "mx6")
    examples = make_task("recall", lang, n_examples=8, seed=1)
    requests = [
        {"task": "score", "context": ex.context, "candidates": ex.candidates}
        for ex in examples
    ]
    return lang, compiled, requests


class TestCacheStats:
    def test_cache_stats_shape(self):
        stats = cache_stats()
        for key in ("causal_mask", "sinusoidal_positions"):
            assert {"hits", "misses", "size", "max_size"} <= set(stats[key])
            assert stats[key]["max_size"] is not None  # explicitly bounded
        assert set(stats["quant_plans"]) == {"size", "hits", "misses", "max_size"}
        assert stats["quantize_calls"] >= 0

    def test_session_summary_reports_caches_and_calls(self, serving):
        _, compiled, requests = serving
        with compiled.session(max_batch=4) as session:
            session.map(requests)
            summary = session.summary()
        assert summary["quantize_calls"]["total"] >= 0
        assert summary["quantize_calls"]["per_request"] >= 0.0
        assert summary["caches"]["causal_mask"]["max_size"] == 128
        assert summary["caches"]["sinusoidal_positions"]["max_size"] == 64

    def test_metrics_quant_delta_counts_work(self, serving):
        lang, compiled, requests = serving
        metrics = SessionMetrics()
        compiled.run(requests)
        summary = metrics.summary()
        assert summary["quantize_calls"]["total"] > 0


class TestScoringParity:
    """The fused scoring schedule (row residency, pruned head, gathered
    log-softmax) must be bit-identical to the historical path."""

    @pytest.mark.parametrize("model_cls", [GPT, MoEGPT], ids=["gpt", "moe"])
    def test_score_requests_identical(self, model_cls):
        lang = SyntheticLanguage(seed=0)
        model = model_cls(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        compiled = compile_model(model, "mx6")
        examples = make_task("recall", lang, n_examples=12, seed=2)
        requests = [
            {"task": "score", "context": ex.context, "candidates": ex.candidates}
            for ex in examples
        ]
        fused = compiled.run(requests)
        with fusion_disabled():
            baseline = compiled.run(requests)
        assert fused == baseline

    def test_multi_token_candidates_and_shared_contexts(self):
        """Dedup must handle candidates of different lengths and repeated
        contexts across requests."""
        lang = SyntheticLanguage(seed=0)
        model = GPT(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        compiled = compile_model(model, "mx6")
        rng = np.random.default_rng(5)
        context = rng.integers(0, lang.vocab_size, size=12).tolist()
        other = rng.integers(0, lang.vocab_size, size=7).tolist()
        requests = [
            {"task": "score", "context": context,
             "candidates": [[1], [2, 3], [4, 5, 6]]},
            {"task": "score", "context": context, "candidates": [[1], [2]]},
            {"task": "score", "context": other, "candidates": [[3], [3, 1]]},
            {"task": "score", "context": other, "continuation": [2, 2]},
        ]
        fused = compiled.run(requests)
        with fusion_disabled():
            baseline = compiled.run(requests)
        assert fused == baseline

    def test_sequence_logprob_parity(self):
        lang = SyntheticLanguage(seed=0)
        model = GPT(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        compile_model(model, "mx6")
        context = np.array([1, 2, 3, 4])
        continuation = np.array([5, 6])
        fused = model.sequence_logprob(context, continuation)
        with fusion_disabled():
            baseline = model.sequence_logprob(context, continuation)
        assert fused == baseline

    def test_forward_rows_matches_forward(self):
        """Row-pruned head logits equal the same rows of the full forward."""
        lang = SyntheticLanguage(seed=0)
        model = GPT(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        compiled = compile_model(model, "mx6")
        del compiled
        from repro.nn.tensor import no_grad

        tokens = np.random.default_rng(6).integers(0, lang.vocab_size, size=(3, 10))
        batch_idx = np.array([0, 0, 1, 2, 2])
        row_idx = np.array([0, 9, 4, 2, 7])
        with no_grad():
            full = model.forward(tokens).data
            pruned = model.forward_rows(tokens, batch_idx, row_idx).data
        np.testing.assert_array_equal(pruned, full[batch_idx, row_idx])

    def test_mixed_precision_policy_disables_row_schedule(self):
        """A single non-exact layer anywhere in the trunk turns off row
        dedup and head pruning (row-subset bits need exact dots in every
        layer), while scoring stays bit-identical."""
        from repro.nn.tensor import no_grad
        from repro.serve.adapters import adapter_for
        from repro.spec.policy import FirstLastHighPolicy

        lang = SyntheticLanguage(seed=0)
        model = GPT(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        policy = FirstLastHighPolicy(
            quant={"activation": "mx6", "weight": "mx6", "backward": None}
        )
        compiled = compile_model(model, policy=policy)
        with no_grad():
            assert not adapter_for(model)._rows_forward_exact()
        examples = make_task("recall", lang, n_examples=8, seed=1)
        requests = [
            {"task": "score", "context": ex.context, "candidates": ex.candidates}
            for ex in examples
        ]
        fused = compiled.run(requests)
        with fusion_disabled():
            baseline = compiled.run(requests)
        assert fused == baseline

        uniform = GPT(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        compile_model(uniform, "mx6")
        with no_grad():
            assert adapter_for(uniform)._rows_forward_exact()

    def test_fp32_scoring_keeps_full_batch(self):
        """Non-exact formats skip dedup/pruning but still score identically."""
        lang = SyntheticLanguage(seed=0)
        model = GPT(lang.vocab_size, GPT_SIZES["GPT-S"], rng=np.random.default_rng(0))
        model.eval()
        examples = make_task("recall", lang, n_examples=6, seed=3)
        requests = [
            {"task": "score", "context": ex.context, "candidates": ex.candidates}
            for ex in examples
        ]
        from repro.serve.adapters import adapter_for
        from repro.nn.tensor import no_grad

        adapter = adapter_for(model)
        with no_grad():
            fused = adapter.score(requests)
            with fusion_disabled():
                baseline = adapter.score(requests)
        assert fused == baseline
