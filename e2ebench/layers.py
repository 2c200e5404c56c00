"""Which functions the traced run wraps, grouped into layers.

Every target is a public function of one ``repro`` module, wrapped from
outside by :class:`spans.SpanRecorder`.  A span is named
``<layer>:<function>``; the layer keys are the repository's module names.
"""

from __future__ import annotations

from repro.compression import registry as compression_registry
from repro.compression.registry import available_compressors, get_compressor
from repro.data.synthetic import SyntheticClickDataset
from repro.dist.comm import Communicator
from repro.dist.simulator import ClusterSimulator
from repro.model.dlrm import DLRM
from repro.nn.optim import SGD
from repro.obs.registry import Counter, Histogram, MetricsRegistry
from repro.serve import publisher as serve_publisher
from repro.serve import shard_server as serve_shard_server
from repro.serve.publisher import DeltaPublisher
from repro.serve.replica import InferenceReplica
from repro.serve.shard_server import EmbeddingShardServer
from repro.serve.simulator import ServingSimulator
from repro.train import pipeline as train_pipeline
from repro.train.pipeline import CompressionPipeline

__all__ = ["LAYERS", "targets"]

#: layer keys, in data-flow order
LAYERS = ("data", "model", "nn", "train.pipeline", "compression", "dist", "serve", "obs")

#: codec entry points wrapped on every registered codec class
CODEC_ENTRY_POINTS = ("compress", "compress_keyed", "compress_into", "compress_keyed_into", "decompress")


def _nbytes(buf) -> int:
    return memoryview(buf).nbytes


def _count_slices(args, kwargs, payloads) -> dict:
    slices = args[1]
    return {
        "train.pipeline.raw_bytes": sum(rows.nbytes for _, rows in slices),
        "train.pipeline.payload_bytes": sum(_nbytes(p) for p in payloads),
    }


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_compress(array_pos: int):
    def count(args, kwargs, result) -> dict:
        out = result.view if hasattr(result, "view") else result  # pooled lease
        return {
            "compression.compress_bytes_in": _arg(args, kwargs, array_pos, "array").nbytes,
            "compression.compress_bytes_out": _nbytes(out),
        }

    return count


def _count_decompress(payload_pos: int):
    def count(args, kwargs, result) -> dict:
        return {
            "compression.decompress_bytes_in": _nbytes(_arg(args, kwargs, payload_pos, "payload")),
            "compression.decompress_bytes_out": result.nbytes,
        }

    return count


def targets() -> list[tuple]:
    """``(owner, attribute, span name, count)`` for every wrapped function."""
    out: list[tuple] = [
        (SyntheticClickDataset, "batch", "data:SyntheticClickDataset.batch", None),
    ]
    for fn in (
        "lookup",
        "forward_dense",
        "forward_interaction",
        "backward_interaction",
        "backward_dense",
        "accumulate_embedding_grad",
    ):
        out.append((DLRM, fn, f"model:DLRM.{fn}", None))
    out.append((SGD, "step", "nn:SGD.step", None))
    out += [
        (CompressionPipeline, "compress_slices", "train.pipeline:compress_slices", _count_slices),
        (CompressionPipeline, "decompress_batch", "train.pipeline:decompress_batch", None),
    ]
    codec_classes = {type(get_compressor(name)) for name in available_compressors()}
    for cls in sorted(codec_classes, key=lambda c: c.name):
        for fn in CODEC_ENTRY_POINTS:
            if fn == "decompress":
                count = _count_decompress(1)
            else:
                count = _count_compress(2 if "keyed" in fn else 1)
            out.append((cls, fn, f"compression:{cls.name}.{fn}", count))
    # decompress_any is a module-level function: wrap each module's binding.
    for module in (compression_registry, train_pipeline, serve_shard_server, serve_publisher):
        out.append((module, "decompress_any", "compression:decompress_any", _count_decompress(0)))
    for fn in ("compressed_all_to_all", "all_to_all", "all_to_all_bytes", "all_reduce_bytes"):
        out.append((Communicator, fn, f"dist:Communicator.{fn}", None))
    out.append((ClusterSimulator, "compute", "dist:ClusterSimulator.compute", None))
    out += [
        (DeltaPublisher, "publish", "serve:DeltaPublisher.publish", None),
        (EmbeddingShardServer, "set_table", "serve:EmbeddingShardServer.set_table", None),
        (EmbeddingShardServer, "pull", "serve:EmbeddingShardServer.pull", None),
        (ServingSimulator, "run", "serve:ServingSimulator.run", None),
        (InferenceReplica, "gather", "serve:InferenceReplica.gather", None),
    ]
    out += [
        (Counter, "inc", "obs:Counter.inc", None),
        (Histogram, "observe", "obs:Histogram.observe", None),
    ]
    for fn in ("counter", "gauge", "histogram"):
        out.append((MetricsRegistry, fn, f"obs:MetricsRegistry.{fn}", None))
    return out
