"""Wiring tests: CodecExecutor + ExchangeAutotuner through the trainer.

The raw-speed tier must be numerics-neutral: attaching an executor changes
*where* slices compress (which workers), never *what* bytes go on the wire,
so two trainers that differ only in worker count produce bit-identical
losses and wire accounting.  The autotuner changes only scheduling
(pipeline chunk counts), pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer, StepwiseDecay
from repro.compression.parallel import CodecExecutor, ExchangeAutotuner
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import ClusterSimulator
from repro.model import DLRM, DLRMConfig
from repro.train import CompressionPipeline, HybridParallelTrainer


@pytest.fixture(scope="module")
def world():
    spec = make_uniform_spec("t", n_tables=6, cardinality=200, zipf_exponent=1.4)
    dataset = SyntheticClickDataset(spec, seed=11, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=8, bottom_hidden=(16,), top_hidden=(16,), seed=12
    )
    model = DLRM(config)
    batch = dataset.batch(128, batch_index=777)
    samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(config.n_tables)}
    plan = OfflineAnalyzer().analyze(samples)
    return dataset, config, plan


def _run(dataset, config, plan, *, executor=None, autotuner=None, iterations=4):
    sim = ClusterSimulator(4)
    controller = AdaptiveController(plan, StepwiseDecay(2.0, 10, n_steps=2))
    pipe = CompressionPipeline(controller)
    trainer = HybridParallelTrainer(
        DLRM(config),
        dataset,
        sim,
        pipeline=pipe,
        lr=0.2,
        autotuner=autotuner,
        codec_executor=executor,
    )
    report = trainer.train(iterations, 64)
    return trainer, report


class TestExecutorWiring:
    def test_worker_count_is_numerics_neutral(self, world):
        """workers=1 vs workers=3: identical losses, identical wire bytes."""
        dataset, config, plan = world
        with CodecExecutor(1) as serial, CodecExecutor(3) as parallel:
            _, rep1 = _run(dataset, config, plan, executor=serial)
            _, rep3 = _run(dataset, config, plan, executor=parallel)
        np.testing.assert_array_equal(rep1.history.losses, rep3.history.losses)
        assert rep1.forward_wire_bytes == rep3.forward_wire_bytes

    def test_executor_without_pipeline_rejected(self, world):
        dataset, config, _ = world
        with pytest.raises(ValueError, match="pipeline"):
            HybridParallelTrainer(
                DLRM(config),
                dataset,
                ClusterSimulator(4),
                codec_executor=CodecExecutor(1),
            )

    def test_executor_still_compresses_the_wire(self, world):
        dataset, config, plan = world
        with CodecExecutor(2) as executor:
            _, report = _run(dataset, config, plan, executor=executor)
        assert report.forward_wire_bytes < report.forward_raw_bytes


class TestAutotunerWiring:
    def test_autotuner_observes_every_forward_exchange(self, world):
        dataset, config, plan = world
        tuner = ExchangeAutotuner()
        trainer, _ = _run(dataset, config, plan, autotuner=tuner, iterations=5)
        assert tuner.observations == 5
        decision = tuner.recommend()
        assert decision.observations == 5
        assert trainer._tuned_chunk_cap() == decision.pipeline_chunks

    def test_autotuner_is_numerics_neutral(self, world):
        """Tuned chunking reschedules the exchange; the losses are
        untouched."""
        dataset, config, plan = world
        _, plain = _run(dataset, config, plan)
        _, tuned = _run(dataset, config, plan, autotuner=ExchangeAutotuner())
        np.testing.assert_array_equal(plain.history.losses, tuned.history.losses)

    def test_autotuner_feeds_pipeline_parallelism(self, world):
        dataset, config, plan = world
        tuner = ExchangeAutotuner(worker_ladder=(1, 2, 4))
        with CodecExecutor(4) as executor:
            trainer, _ = _run(dataset, config, plan, executor=executor, autotuner=tuner)
        assert trainer.pipeline.autotuner is tuner
        assert trainer.pipeline._tuned_parallelism() in (1, 2, 4)
