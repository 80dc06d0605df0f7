"""Vector indexes: exact brute-force kNN and IVF-style approximate search.

The RAG-era data-layer workload (ROADMAP open item 2) is a document store
answering *metadata-filtered* nearest-neighbour queries: "the top-k most
similar embeddings among the documents this tenant may see".  This module
provides the index side of that workload as a drop-in member of the
existing secondary-index machinery:

* :class:`VectorIndex` speaks the same maintenance protocol as the
  sorted-array :class:`~repro.documentstore.indexes.Index` —
  ``insert``/``remove``/``replace``/``clear``/``bulk_insert`` (with
  rollback handles)/``rebuild`` — so collections, deferred builds
  (``bulk_load()``), WAL replay, and snapshot restores treat it exactly
  like a b-tree index; only the lookup surface differs (``search`` instead
  of ``prefix_lookup``/``range_lookup``).
* Search is **exact by default**: a full scan scoring every stored vector,
  with a bounded heap keeping the top ``k``.  Results are deterministic —
  ties broken by document ``_id`` order — which is what makes
  standalone/sharded/served parity exactly testable.
* ``rebuild`` over a large enough collection also trains an **IVF**
  (inverted-file) structure: coarse centroids fitted with a seeded k-means,
  every vector assigned to its nearest centroid's posting list.  A search
  then probes only the ``nprobe`` nearest lists — the classic
  recall-for-latency trade: higher ``nprobe`` → higher recall, more
  vectors scored.
* Pre-filtered search (``allowed_ids``) always runs exact over the allowed
  subset: once a metadata filter has cut the candidates down, scanning
  them exactly is both cheaper and better-recall than probing lists.

Scores are "higher is better" on every metric so the merge order is
uniform across the stack (the sharded gather sorts descending):

* ``cosine`` → ``(1 + cos θ) / 2`` mapped into [0, 1] (zero-norm vectors
  score 0.5 against everything);
* ``l2`` → ``1 / (1 + distance)`` mapped into (0, 1].

Everything is pure Python — no NumPy — matching the repository's
no-new-dependencies constraint; the benchmark family measures the IVF
speedup against this same pure-Python exact scan.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from .errors import OperationFailure
from .indexes import IndexSpec
from .matching import collation_key, resolve_path_single

__all__ = ["VectorIndex", "VectorBulkUndo", "vector_score"]

#: Deterministic seed for k-means training (results must be reproducible).
_TRAIN_SEED = 0x5EED1D

#: Train IVF lists only when at least this many vectors are indexed;
#: below it a full exact scan is already fast and lists would hurt recall.
_MIN_TRAIN_SIZE = 256

#: Lloyd iterations for centroid refinement (diminishing returns after ~6).
_KMEANS_ITERATIONS = 6


def _as_vector(value: Any, dims: int, field_path: str) -> tuple[float, ...] | None:
    """Validate and convert a document value into a float tuple, or None.

    Missing values (``None``) are skipped — documents without the embedding
    simply do not participate in vector search, mirroring how a b-tree
    index treats a missing field as un-matchable by ``$gt``-style ops.
    Present-but-malformed values raise: silently dropping a corrupt
    embedding would make recall bugs undetectable.
    """
    if value is None:
        return None
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Sequence):
        raise OperationFailure(
            f"field {field_path!r} must hold a numeric array to be vector-indexed"
        )
    if len(value) != dims:
        raise OperationFailure(
            f"field {field_path!r} has {len(value)} dimensions; index expects {dims}"
        )
    try:
        vector = tuple(float(component) for component in value)
    except (TypeError, ValueError):
        raise OperationFailure(
            f"field {field_path!r} contains non-numeric components"
        ) from None
    if any(math.isnan(component) or math.isinf(component) for component in vector):
        raise OperationFailure(f"field {field_path!r} contains NaN/Inf components")
    return vector


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(operator.mul, a, b))


def _norm(a: Sequence[float]) -> float:
    return math.sqrt(sum(component * component for component in a))


def _l2_distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def vector_score(
    metric: str,
    query: Sequence[float],
    query_norm: float,
    vector: Sequence[float],
    vector_norm: float,
) -> float:
    """Similarity score in [0, 1], higher is better, for one stored vector."""
    if metric == "cosine":
        denominator = query_norm * vector_norm
        if denominator == 0.0:
            return 0.5
        cosine = _dot(query, vector) / denominator
        # Clamp: float error can push |cos| infinitesimally past 1.
        cosine = max(-1.0, min(1.0, cosine))
        return (1.0 + cosine) / 2.0
    return 1.0 / (1.0 + _l2_distance(query, vector))


class _DeterministicRNG:
    """Tiny xorshift64* generator — seeded, dependency-free, stable forever.

    ``random.Random`` would also be deterministic, but its algorithm is
    documented as an implementation detail; centroid training must produce
    identical lists on every platform the tests run on.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = (seed or 1) & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        x = self._state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= (x >> 27) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def randrange(self, n: int) -> int:
        return self.next() % n


class VectorBulkUndo:
    """Rollback handle for one :meth:`VectorIndex.bulk_insert` call."""

    __slots__ = ("_index", "_doc_ids")

    def __init__(self, index: "VectorIndex", doc_ids: list[int]) -> None:
        self._index = index
        self._doc_ids = doc_ids

    def rollback(self) -> None:
        """Remove the batch's vectors (mirrors ``BulkUndo.rollback``)."""
        for doc_id in self._doc_ids:
            self._index._discard(doc_id)


class VectorIndex:
    """A kNN/ANN index over one embedding field of a collection.

    Maintains ``doc_id -> vector`` plus IVF posting lists once trained.
    ``order_safe`` is always False: a vector index can never serve a
    b-tree-style sort, so the planner skips it for finds.
    """

    def __init__(self, spec: IndexSpec) -> None:
        if not spec.is_vector:
            raise OperationFailure("VectorIndex requires a spec of type 'vector'")
        self.spec = spec
        self._field = spec.fields[0]
        self._vectors: dict[int, tuple[float, ...]] = {}
        self._norms: dict[int, float] = {}
        #: Deterministic tiebreak key per doc: the collation key of the document _id.
        self._tiebreaks: dict[int, Any] = {}
        # IVF state (populated by rebuild() when the collection is big enough).
        self._centroids: list[tuple[float, ...]] = []
        self._centroid_norms: list[float] = []
        self._lists: list[list[int]] = []
        self._assignments: dict[int, int] = {}

    # -- maintenance (same protocol as Index) -------------------------------

    def _extract(self, document: Mapping[str, Any]) -> tuple[float, ...] | None:
        value = resolve_path_single(document, self._field)
        return _as_vector(value, self.spec.dims, self._field)

    def _add(self, doc_id: int, document: Mapping[str, Any], vector: tuple[float, ...]) -> None:
        self._vectors[doc_id] = vector
        self._norms[doc_id] = _norm(vector)
        self._tiebreaks[doc_id] = collation_key(document.get("_id"))
        if self._centroids:
            assignment = self._nearest_centroid(vector)
            self._assignments[doc_id] = assignment
            self._lists[assignment].append(doc_id)

    def _discard(self, doc_id: int) -> None:
        if self._vectors.pop(doc_id, None) is None:
            return
        self._norms.pop(doc_id, None)
        self._tiebreaks.pop(doc_id, None)
        assignment = self._assignments.pop(doc_id, None)
        if assignment is not None:
            try:
                self._lists[assignment].remove(doc_id)
            except ValueError:  # pragma: no cover - defensive
                pass

    def insert(self, document: Mapping[str, Any], doc_id: int) -> None:
        """Index *document* stored under *doc_id* (missing field → no-op)."""
        vector = self._extract(document)
        if vector is not None:
            self._add(doc_id, document, vector)

    def remove(self, document: Mapping[str, Any], doc_id: int) -> None:
        """Remove *doc_id* from the index."""
        self._discard(doc_id)

    def replace(
        self,
        old_document: Mapping[str, Any],
        new_document: Mapping[str, Any],
        doc_id: int,
    ) -> None:
        """Re-index *doc_id* after an update changed the document."""
        # Validate the new embedding *before* discarding the old entry so a
        # malformed update leaves the index unchanged.
        vector = self._extract(new_document)
        self._discard(doc_id)
        if vector is not None:
            self._add(doc_id, new_document, vector)

    def clear(self) -> None:
        """Drop every entry and the trained IVF structure."""
        self._vectors.clear()
        self._norms.clear()
        self._tiebreaks.clear()
        self._centroids = []
        self._centroid_norms = []
        self._lists = []
        self._assignments.clear()

    def bulk_insert(
        self, documents: Iterable[tuple[int, Mapping[str, Any]]]
    ) -> VectorBulkUndo:
        """Index a whole batch; returns a rollback handle.

        The entire batch is validated *before* any vector is stored, so a
        malformed embedding mid-batch raises without mutating the index —
        the same no-partial-effect contract ``Index.bulk_insert`` gives for
        unique violations.
        """
        prepared: list[tuple[int, Mapping[str, Any], tuple[float, ...]]] = []
        for doc_id, document in documents:
            vector = self._extract(document)
            if vector is not None:
                prepared.append((doc_id, document, vector))
        added: list[int] = []
        for doc_id, document, vector in prepared:
            self._add(doc_id, document, vector)
            added.append(doc_id)
        return VectorBulkUndo(self, added)

    def rebuild(self, documents: Iterable[tuple[int, Mapping[str, Any]]]) -> None:
        """Rebuild from scratch and (re)train the IVF structure.

        Used by deferred builds (``create_index`` over a populated
        collection, ``bulk_load()`` exit, snapshot restore, WAL replay).
        Validation happens before the old entries are discarded.
        """
        prepared: list[tuple[int, Mapping[str, Any], tuple[float, ...]]] = []
        for doc_id, document in documents:
            vector = self._extract(document)
            if vector is not None:
                prepared.append((doc_id, document, vector))
        self.clear()
        for doc_id, document, vector in prepared:
            self._add(doc_id, document, vector)
        self.train()

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def order_safe(self) -> bool:
        """Vector indexes never order like a b-tree; sorts cannot use them."""
        return False

    # -- IVF training -------------------------------------------------------

    @property
    def trained(self) -> bool:
        """True once IVF centroids exist and approximate search is available."""
        return bool(self._centroids)

    @property
    def nlist(self) -> int:
        """Number of trained coarse centroids (0 when untrained)."""
        return len(self._centroids)

    def default_nlist(self) -> int:
        """The list count used when the spec does not pin one: ~sqrt(n)."""
        if self.spec.nlist:
            return self.spec.nlist
        return max(8, min(256, int(math.sqrt(len(self._vectors)))))

    def train(self, *, force: bool = False) -> bool:
        """Fit coarse centroids with seeded k-means; returns True if trained.

        Skipped (returns False) when fewer than ``_MIN_TRAIN_SIZE`` vectors
        are indexed unless *force* — tiny collections search exactly anyway
        and per-shard training on toy fixtures would make parity tests
        non-deterministic.
        """
        population = len(self._vectors)
        if population == 0:
            return False
        if population < _MIN_TRAIN_SIZE and not force:
            return False
        nlist = min(self.default_nlist(), population)
        doc_ids = sorted(self._vectors, key=lambda d: (self._tiebreaks[d], d))
        rng = _DeterministicRNG(_TRAIN_SEED)

        # Seed centroids by sampling distinct vectors deterministically.
        chosen: list[int] = []
        seen_positions: set[int] = set()
        while len(chosen) < nlist and len(seen_positions) < population:
            position = rng.randrange(population)
            if position in seen_positions:
                continue
            seen_positions.add(position)
            chosen.append(doc_ids[position])
        centroids = [self._vectors[doc_id] for doc_id in chosen]

        # Lloyd refinement over a bounded deterministic sample: k-means only
        # needs representative centroids, not a full-data fit.
        sample_cap = max(nlist * 64, 4096)
        if population > sample_cap:
            step = population / sample_cap
            sample = [doc_ids[int(i * step)] for i in range(sample_cap)]
        else:
            sample = doc_ids
        dims = self.spec.dims
        for _ in range(_KMEANS_ITERATIONS):
            sums = [[0.0] * dims for _ in centroids]
            counts = [0] * len(centroids)
            for doc_id in sample:
                vector = self._vectors[doc_id]
                best = self._nearest_of(vector, centroids)
                counts[best] += 1
                accumulator = sums[best]
                for axis in range(dims):
                    accumulator[axis] += vector[axis]
            moved = False
            for i, count in enumerate(counts):
                if count == 0:
                    continue  # empty list keeps its previous centroid
                updated = tuple(component / count for component in sums[i])
                if updated != centroids[i]:
                    moved = True
                centroids[i] = updated
            if not moved:
                break

        self._centroids = centroids
        self._centroid_norms = [_norm(centroid) for centroid in centroids]
        self._lists = [[] for _ in centroids]
        self._assignments = {}
        for doc_id in doc_ids:
            assignment = self._nearest_centroid(self._vectors[doc_id])
            self._assignments[doc_id] = assignment
            self._lists[assignment].append(doc_id)
        return True

    def _nearest_of(
        self, vector: Sequence[float], centroids: list[tuple[float, ...]]
    ) -> int:
        best = 0
        best_distance = math.inf
        for i, centroid in enumerate(centroids):
            distance = sum((x - y) ** 2 for x, y in zip(vector, centroid))
            if distance < best_distance:
                best_distance = distance
                best = i
        return best

    def _nearest_centroid(self, vector: Sequence[float]) -> int:
        return self._nearest_of(vector, self._centroids)

    # -- search -------------------------------------------------------------

    def default_nprobe(self) -> int:
        """Probe ~1/8th of the lists by default (recall/latency middle ground)."""
        if not self._centroids:
            return 1
        return max(1, len(self._centroids) // 8)

    def search(
        self,
        query: Sequence[Any],
        k: int,
        *,
        nprobe: int | None = None,
        exact: bool = False,
        allowed_ids: set[int] | None = None,
    ) -> tuple[list[tuple[int, float]], int]:
        """Top-*k* most similar stored vectors; returns (ranked, scored_count).

        ``ranked`` is ``[(doc_id, score), ...]`` best-first with ties broken
        deterministically by document ``_id`` order; ``scored_count`` is the
        number of vectors actually scored (the explain/benchmark honesty
        number).  Exact scan when *exact*, when untrained, or when
        *allowed_ids* pre-filters the candidates; otherwise IVF probes the
        *nprobe* nearest posting lists.
        """
        query_vector = _as_vector(list(query), self.spec.dims, "queryVector")
        if query_vector is None:
            raise OperationFailure("queryVector must be a numeric array")
        if k <= 0:
            raise OperationFailure("vector search requires k >= 1")
        if allowed_ids is not None:
            candidates: Iterable[int] = (
                doc_id for doc_id in allowed_ids if doc_id in self._vectors
            )
        elif exact or not self._centroids:
            candidates = self._vectors
        else:
            candidates = self._probe(query_vector, nprobe)
        query_norm = _norm(query_vector)
        metric = self.spec.metric
        vectors = self._vectors
        norms = self._norms
        tiebreaks = self._tiebreaks
        scored = 0
        entries: list[tuple[float, Any, int]] = []
        for doc_id in candidates:
            score = vector_score(
                metric, query_vector, query_norm, vectors[doc_id], norms[doc_id]
            )
            scored += 1
            entries.append((-score, tiebreaks[doc_id], doc_id))
        top = heapq.nsmallest(k, entries)
        return [(doc_id, -negated) for negated, _tiebreak, doc_id in top], scored

    def _probe(self, query_vector: tuple[float, ...], nprobe: int | None) -> list[int]:
        """Document ids in the *nprobe* posting lists nearest the query."""
        probes = nprobe if nprobe and nprobe > 0 else self.default_nprobe()
        probes = min(probes, len(self._centroids))
        ranked = heapq.nsmallest(
            probes,
            range(len(self._centroids)),
            key=lambda i: sum(
                (x - y) ** 2 for x, y in zip(query_vector, self._centroids[i])
            ),
        )
        candidates: list[int] = []
        for i in ranked:
            candidates.extend(self._lists[i])
        return candidates
