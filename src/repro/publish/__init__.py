"""Hitlist publication & distribution (`repro serve`).

The real IPv6 Hitlist service does not stop at producing lists — it
*publishes* them, and registered downstream users fetch the responsive
and aliased-prefix files continuously.  This package is that missing
distribution layer for the reproduction:

* :mod:`repro.publish.store` — a content-addressed, versioned snapshot
  store: each pipeline scan commits its publication set as an immutable
  snapshot with a JSON manifest (SHA-256 per artifact, scan day, parent
  snapshot id);
* :mod:`repro.publish.delta` — line-level delta encoding between
  consecutive snapshots so daily consumers download changes instead of
  full lists, plus a verifying applier that reconstructs any snapshot
  from a base and a delta chain;
* :mod:`repro.publish.index` — a prefix/protocol/ASN query index over a
  snapshot, built on :class:`repro.net.trie.PrefixTrie`;
* :mod:`repro.publish.ratelimit` — a deterministic token-bucket rate
  limiter over an injectable :class:`repro.obs.clock.Clock`;
* :mod:`repro.publish.server` — the socket-free HTTP serving core
  (strong ETags, ``If-None-Match`` 304s, gzip, ``/v1`` API,
  ``/metrics``) instrumented through :mod:`repro.obs`;
* :mod:`repro.publish.cache` — a read-through hot-blob LRU cache with a
  byte budget, fronting the immutable object store;
* :mod:`repro.publish.aserve` — the one transport: an asyncio HTTP/1.1
  front end (keep-alive, connection metrics, ``os.sendfile``) serving
  one listening socket from one process or N forked workers.
"""

from repro.publish.cache import BlobCache, CachedBlob
from repro.publish.delta import (
    DeltaError,
    apply_delta,
    compute_delta,
    delta_chain,
    delta_from_json,
    delta_to_json,
    reconstruct_artifacts,
)
from repro.publish.index import QueryIndex
from repro.publish.ratelimit import TokenBucket
from repro.publish.server import PublishApp, Response
from repro.publish.store import (
    ARTIFACT_NAMES,
    GZIP_THRESHOLD,
    Manifest,
    PublishError,
    SnapshotStore,
    compress_blob,
    publication_artifacts,
)

__all__ = [
    "ARTIFACT_NAMES",
    "BlobCache",
    "CachedBlob",
    "DeltaError",
    "GZIP_THRESHOLD",
    "Manifest",
    "PublishApp",
    "PublishError",
    "QueryIndex",
    "Response",
    "SnapshotStore",
    "TokenBucket",
    "compress_blob",
    "apply_delta",
    "compute_delta",
    "delta_chain",
    "delta_from_json",
    "delta_to_json",
    "publication_artifacts",
    "reconstruct_artifacts",
]
