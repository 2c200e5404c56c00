"""Differential tests: CodecExecutor thread-pool payloads vs the serial loop.

The executor's determinism contract is that payload *bytes* are identical
at every worker count — the ``workers=1`` serial loop and the thread pool —
for every registered codec.  These tests pin that contract, decode
equivalence, and the per-batch ``parallelism`` cap on in-flight work.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.compression.baselines import Fp16Compressor
from repro.compression.parallel import (
    CodecExecutor,
    CompressJob,
    available_workers,
)
from repro.compression.registry import (
    available_compressors,
    decompress_any,
    get_compressor,
)

BOUND = 1e-2


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(7)
    return [
        np.asarray(rng.normal(0.0, 2.0, size=(37, 16)), dtype=np.float32),
        np.asarray(rng.normal(0.0, 1.0, size=(64, 8)), dtype=np.float32),
        np.zeros((5, 4), dtype=np.float32),
        np.asarray(rng.normal(0.0, 3.0, size=(128, 32)), dtype=np.float32),
    ]


@pytest.fixture(scope="module")
def executors():
    """The serial loop and a thread pool, shared across the module."""
    with CodecExecutor(1) as serial, CodecExecutor(3) as thread:
        yield {"serial": serial, "thread": thread}


class TestConstruction:
    def test_workers_one_is_serial(self, monkeypatch, tables):
        """``workers=1`` runs every codec call on the calling thread."""
        callers = []
        compress = Fp16Compressor.compress

        def recording(codec, *args, **kwargs):
            callers.append(threading.get_ident())
            return compress(codec, *args, **kwargs)

        monkeypatch.setattr(Fp16Compressor, "compress", recording)
        with CodecExecutor(1) as serial:
            serial.compress_batch([CompressJob("fp16", t) for t in tables])
        assert callers == [threading.get_ident()] * len(tables)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            CodecExecutor(0)

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestDifferential:
    @pytest.mark.parametrize("codec", sorted(available_compressors()))
    def test_parallel_bytes_identical_to_serial(self, codec, tables, executors):
        """Serial loop and thread pool, same payload bytes — for every
        registered codec."""
        jobs = [CompressJob(codec, t, BOUND) for t in tables]
        expected = [bytes(p) for p in executors["serial"].compress_batch(jobs)]
        direct = get_compressor(codec)
        assert expected == [bytes(direct.compress(t, BOUND)) for t in tables]
        got = [bytes(p) for p in executors["thread"].compress_batch(jobs)]
        assert got == expected, f"{codec} payloads diverged on the thread pool"

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_decompress_matches_serial(self, backend, tables, executors):
        payloads = executors["serial"].compress_batch(
            [CompressJob("hybrid", t, BOUND) for t in tables]
        )
        expected = [decompress_any(p) for p in payloads]
        got = executors[backend].decompress_batch(payloads)
        assert len(got) == len(expected)
        for g, e, t in zip(got, expected, tables):
            np.testing.assert_array_equal(g, e)
            assert np.max(np.abs(g - t), initial=0.0) <= BOUND * 1.0001

    def test_parallelism_cap_changes_nothing(self, tables, executors):
        jobs = [CompressJob("vector_lz", t, BOUND) for t in tables]
        expected = [bytes(p) for p in executors["serial"].compress_batch(jobs)]
        for cap in (1, 2, 8):
            got = [bytes(p) for p in executors["thread"].compress_batch(jobs, parallelism=cap)]
            assert got == expected

    def test_oversubscribed_pool_under_fast_switching(self, tables):
        """More threads than cores and a tiny switch interval: no result
        slot is lost or swapped, and no codec scratch state leaks between
        threads."""
        jobs = [CompressJob(codec, t, BOUND) for codec in ("vector_lz", "entropy") for t in tables] * 4
        expected = [bytes(p) for p in CodecExecutor(1).compress_batch(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CodecExecutor(8) as executor:
                got = [bytes(p) for p in executor.compress_batch(jobs)]
                decoded = executor.decompress_batch(got)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        for array, payload in zip(decoded, expected):
            np.testing.assert_array_equal(array, decompress_any(payload))

    def test_job_kwargs_reach_the_codec(self, tables, executors):
        table = tables[3]
        jobs = [CompressJob("vector_lz", table, BOUND, (("window", 4),))]
        (payload,) = executors["thread"].compress_batch(jobs)
        assert bytes(payload) == bytes(get_compressor("vector_lz", window=4).compress(table, BOUND))

    def test_empty_batch(self, executors):
        for backend in ("serial", "thread"):
            assert executors[backend].compress_batch([]) == []
            assert executors[backend].decompress_batch([]) == []


class TestHomomorphicCrossBackend:
    """The homomorphic codecs ride the same determinism contract — and
    their *aggregated* payloads must also be byte-identical whether the
    serial loop or the thread pool produced the leaves."""

    @pytest.mark.parametrize("codec", ["count_sum", "quant_sum"])
    def test_aggregated_bytes_identical_across_backends(self, tables, executors, codec):
        from repro.compression.homomorphic import agg_fold, composed_bound

        compressor = get_compressor(codec)
        bound = BOUND if compressor.error_bounded else None
        # Equal-shape leaves (aggregation requires it): slices of one table.
        leaves = [np.ascontiguousarray(tables[3][i * 32 : (i + 1) * 32]) for i in range(4)]
        jobs = [CompressJob(codec, leaf, bound) for leaf in leaves]
        expected_leaves = [bytes(p) for p in executors["serial"].compress_batch(jobs)]
        expected_agg = agg_fold(expected_leaves)
        payloads = [bytes(p) for p in executors["thread"].compress_batch(jobs)]
        assert payloads == expected_leaves, f"{codec} leaves diverged on the thread pool"
        assert agg_fold(payloads) == expected_agg
        decoded = decompress_any(expected_agg)
        exact = np.sum([leaf.astype(np.float64) for leaf in leaves], axis=0)
        # count_sum decodes to float32, so allow one float32 ulp around the
        # exact float64 sum; quant_sum gets its composed bound.
        slack = float(np.spacing(np.float32(np.max(np.abs(exact), initial=1.0))))
        tolerance = composed_bound(expected_agg) * 1.0001 + slack
        assert np.max(np.abs(decoded.astype(np.float64) - exact), initial=0.0) <= tolerance

    def test_aggregated_payload_decodes_on_every_backend(self, tables, executors):
        from repro.compression.homomorphic import agg_fold

        leaves = [np.ascontiguousarray(tables[3][i * 32 : (i + 1) * 32]) for i in range(4)]
        payload = agg_fold(
            executors["serial"].compress_batch(
                [CompressJob("count_sum", leaf, None) for leaf in leaves]
            )
        )
        expected = decompress_any(payload)
        for backend in ("serial", "thread"):
            (got,) = executors[backend].decompress_batch([payload])
            np.testing.assert_array_equal(got, expected)


class _ConcurrencyProbe:
    """Counts how many wrapped calls run at once; each call sleeps so
    overlapping calls really overlap."""

    def __init__(self):
        self._lock = threading.Lock()
        self._running = 0
        self.peak = 0

    def wrap(self, fn):
        def probed(*args, **kwargs):
            with self._lock:
                self._running += 1
                self.peak = max(self.peak, self._running)
            try:
                time.sleep(0.02)
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self._running -= 1

        return probed


class TestParallelismCap:
    """The autotuner's per-batch worker recommendation bounds in-flight
    codec calls to ``min(parallelism, workers)``."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 6])
    def test_compress_batch_honours_cap(self, monkeypatch, tables, cap):
        probe = _ConcurrencyProbe()
        monkeypatch.setattr(Fp16Compressor, "compress", probe.wrap(Fp16Compressor.compress))
        jobs = [CompressJob("fp16", t) for t in tables * 3]
        with CodecExecutor(4) as executor:
            executor.compress_batch(jobs, parallelism=cap)
        assert 1 <= probe.peak <= min(cap, 4)

    @pytest.mark.parametrize("cap", [1, 2, 3, 6])
    def test_decompress_batch_honours_cap(self, monkeypatch, tables, cap):
        payloads = [Fp16Compressor().compress(t) for t in tables * 3]
        probe = _ConcurrencyProbe()
        # decompress_any parses each frame once and hands it to ``decode``
        monkeypatch.setattr(Fp16Compressor, "decode", probe.wrap(Fp16Compressor.decode))
        with CodecExecutor(4) as executor:
            executor.decompress_batch(payloads, parallelism=cap)
        assert 1 <= probe.peak <= min(cap, 4)
