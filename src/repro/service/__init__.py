"""Sharded server-side aggregation of randomized disclosures.

The paper's deployment is a server reconstructing distributions from
millions of independently randomized disclosures.  This subpackage is
that server's aggregation tier:

* :mod:`repro.service.shards` — :class:`Domain`: the service schema
  (each attribute's spec, noise-expanded grid and place in the flat
  counts buffer) and the one validation pass of every batch; and
  :class:`ShardSet`: a fixed number of mergeable histogram shards over
  a domain, each one counts buffer, one record-counter matrix and one
  lock, fed by a fused flat-offset bincount (:class:`PreparedBatch`)
  computed outside the lock, so N ingestion workers hold a shard's lock
  only for an O(bins) add, and a refresh merges in O(shards x bins),
* :mod:`repro.service.wire` — the ``application/x-ppdm-columns`` binary
  columnar wire format (:func:`encode_columns` /
  :func:`iter_labeled_frames`): raw little-endian float64 columns decoded
  zero-copy via ``np.frombuffer``, quantized int8/int16 bin-index
  columns (:func:`encode_quantized`, wire v5), per-body compression
  negotiated over ``Content-Encoding`` (:func:`compress_payload` /
  :func:`decompress_payload`, bounded by an explicit decoded-size cap),
  plus an NDJSON fallback,
* :mod:`repro.service.service` — :class:`AggregationService`: the facade
  gluing the shard set to one shared
  :class:`~repro.core.engine.ReconstructionEngine` (one kernel cache
  across all attributes), with warm-started ``estimate()`` and
  snapshot/restore through :mod:`repro.serialize`,
* :mod:`repro.service.httpd` — a stdlib HTTP front end behind
  ``ppdm serve``, negotiating JSON / NDJSON / columnar ingest bodies
  per Content-Type over keep-alive connections; it owns its process's
  auto-snapshots and its one drain (:meth:`ServiceHTTPServer.drain`),
  which lets every admitted body finish before the last write,
* :mod:`repro.service.training` — :class:`TrainingService`: the
  training tier, growing the paper's Global/ByClass/Local decision
  trees from its buffer of labeled randomized rows through the offline
  pipeline's strategy code (``POST /train`` / ``GET /model`` /
  ``ppdm train``),
* :mod:`repro.service.support` — :class:`SupportShardSet`: the mining
  workload's accumulators — joint bit-pattern counts of MASK-randomized
  baskets in the same shard set as the histograms, over a pattern
  layout, marginalizable to any itemset's observed pattern counts
  bit-identically at any shard count,
* :mod:`repro.service.mining` — :class:`MiningService`: level-wise
  MASK Apriori over the service-held pattern counts, bit-identical to
  the offline :class:`~repro.mining.MaskMiner` pipeline
  (``POST /mine`` / ``GET /rules`` / ``ppdm mine``), with rule sets
  snapshotting as ``mined_rules`` (:class:`MinedRules`),
* :mod:`repro.service.cluster` — the multi-node tier behind
  ``ppdm serve --workers N``: worker processes ingest independently, a
  :class:`ClusterCoordinator` pulls their cumulative merged partials as
  version 3 wire frames (:func:`encode_partial`) on a timer and on
  demand and replaces each worker's dedicated shard slot idempotently,
  and estimates/training over the union stay bit-identical to one
  process fed the same records,
* :mod:`repro.service.faults` — :class:`FaultPlan`: deterministic,
  seeded fault injection (drop/delay/5xx a response, fail a snapshot
  write, SIGKILL a worker) threaded through the HTTP front end,
  registration, and the supervisor so chaos runs replay
  bit-identically,
* :mod:`repro.service.resilience` — crash-safe durability (atomic
  fsynced snapshot writes with an integrity digest, one rotated
  generation, newest-valid-generation recovery) plus the degradation
  primitives: :class:`AdmissionController` (the in-flight ingest
  count, bounded with 429 + Retry-After and closed by a drain), and
  :class:`RestartBudget` (supervised worker restarts under a
  sliding-window cap).

Estimates are bit-identical to a single-stream
:class:`~repro.core.streaming.StreamingReconstructor` fed the same
disclosures — sharding, class labels, and wire format change
the ingestion topology, never the math — and service-trained
trees are bit-identical to the offline training pipeline fed the same
randomized rows.
"""

from repro.service.cluster import ClusterCoordinator, export_sync_body
from repro.service.faults import FaultPlan
from repro.service.httpd import ServiceHTTPServer
from repro.service.resilience import AdmissionController, RestartBudget
from repro.service.mining import MinedRules, MiningService, mining_from_spec
from repro.service.service import AggregationService, service_from_spec
from repro.service.shards import (
    AttributeSpec,
    Domain,
    PreparedBatch,
    ShardSet,
)
from repro.service.support import SupportShardSet
from repro.service.training import TrainedModel, TrainingService
from repro.service.wire import (
    compress_payload,
    decompress_payload,
    encode_baskets,
    encode_columns,
    encode_partial,
    encode_quantized,
    iter_basket_frames,
    iter_labeled_frames,
    iter_labeled_ndjson,
    resolve_codec,
    split_partial,
    supported_codecs,
)

__all__ = [
    "AdmissionController",
    "AggregationService",
    "AttributeSpec",
    "ClusterCoordinator",
    "Domain",
    "FaultPlan",
    "MinedRules",
    "MiningService",
    "PreparedBatch",
    "RestartBudget",
    "ShardSet",
    "ServiceHTTPServer",
    "SupportShardSet",
    "TrainedModel",
    "TrainingService",
    "export_sync_body",
    "mining_from_spec",
    "service_from_spec",
    "compress_payload",
    "decompress_payload",
    "encode_baskets",
    "encode_columns",
    "encode_partial",
    "encode_quantized",
    "iter_basket_frames",
    "iter_labeled_frames",
    "iter_labeled_ndjson",
    "resolve_codec",
    "split_partial",
    "supported_codecs",
]
