"""Content-addressable result store keyed by canonical spec hashes.

Pooled :class:`~repro.api.RunSpec` execution is bitwise-deterministic per
seed (the PR 5 executor contract), which makes every seeded run's result
*content-addressable*: the result is a pure function of the spec, so a
canonical hash of the spec is a complete cache key.  This module provides
the three pieces that turn that observation into a persistent cache:

* **Canonical hashing** — :func:`spec_hash` is the SHA-256 of a canonical
  JSON document (sorted keys, compact separators, defaults resolved through
  :class:`RunSpec`, tuples normalised to lists) tagged with
  :data:`STORE_SCHEMA_VERSION`.  The hash is invariant under dict key order
  and ``to_dict`` → JSON → ``from_dict`` round trips, and *any* field
  change — including nested params and seeds — changes it.  Golden values
  are pinned in ``tests/unit/test_store_properties.py``; bump the schema
  version whenever spec semantics or the payload encoding change meaning,
  so stale entries turn into loud misses instead of silent wrong answers.

* **Canonical payload encoding** — results carry tuples, integer-keyed
  dicts and the occasional non-finite float, none of which survive plain
  JSON.  :func:`encode_value` / :func:`decode_value` round-trip those
  through small ``"$"``-tagged wrappers; :func:`canonical_json` renders any
  encodable value to one deterministic byte string, so a warm store returns
  payloads *byte-identical* to the cold run's.

* **The store itself** — :class:`ResultStore` is a sharded
  directory-of-JSON backend (``<root>/<hash[:2]>/<hash>.json``) with atomic
  writes (temp file + ``os.replace``, safe under concurrent writers) and
  corruption-tolerant reads: a truncated, garbage or wrong-schema entry is
  deleted and reported as a miss, never an exception — the caller
  recomputes and the fresh write repairs the entry.

The escape hatch: an *unseeded* spec (``seed=None``) draws fresh randomness
per run, so its results are not content-addressable and are never cached —
:func:`spec_cacheable` gates every read and write, and bypasses are counted
alongside hits and misses (see :meth:`ResultStore.stats`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import os
import tempfile
import time
from collections.abc import Mapping
from itertools import repeat
from pathlib import Path
from typing import Any

from repro.api.spec import RunSpec
from repro.core.errors import StorePayloadError
from repro.core.results import ExecutionResult

#: Version tag hashed into every spec hash and stamped on every store entry.
#: Bump it whenever the spec schema, the seed-derivation rules, or the
#: payload encoding change meaning — old entries then read as
#: wrong-schema (miss + repair) instead of being served with stale semantics.
#: Version 2: ``RunSpec`` gained the ``shards`` field (intra-run sharded
#: execution).  The shard *count* is canonicalized away — sharded results
#: are shard-count-invariant — but sharded (counter-rng) and unsharded
#: (legacy serial rng) runs draw different random streams and hash apart.
#: Version 3: the ``backend`` field is canonicalized away entirely — every
#: tier is bitwise-identical for the same seeds by the parity contract, so
#: warm stores replay across tiers.
#: Version 4: the dynamic environment joins the spec (``churn``,
#: ``churn_seed``, ``churn_params`` fields) and result payloads may carry
#: re-convergence metadata; entries written under earlier schemas miss
#: loudly and are recomputed.
#: Version 5: ``shards`` becomes legal for the asynchronous and dynamic
#: environments (sharded event buckets / sharded segments).  The
#: canonicalization rule is unchanged — any shard count >= 1 hashes as 1,
#: unsharded (``None``) hashes apart — but sharded async/dynamic specs
#: that version 4 rejected now produce entries, so the version fences
#: stores written before those streams existed.
#: Version 6: every engine draws from the one counter pick stream, so
#: ``shards`` canonicalizes away entirely, like ``backend`` — sharded and
#: unsharded runs of a spec share one address.  Seeded results changed
#: (the interpreters and ``shards=None`` runs no longer draw from
#: ``random.Random``), so older entries must miss.
#: Version 7: payloads store ``final_states`` packed, as a table of the
#: distinct states plus one table index per node (see
#: :func:`result_to_payload`); spec semantics are unchanged.
#: Version 8: payloads pack ``outputs`` the same way, with the slot
#: :data:`NO_OUTPUT` for a node that has no output; spec semantics are
#: unchanged.
STORE_SCHEMA_VERSION = 8

#: Slot of a node without an output in a packed ``outputs`` index.
NO_OUTPUT = -1

#: Reserved tag keys of the canonical payload encoding.
_TAGS = frozenset({"$t", "$s", "$d", "$f", "$b", "$o"})

#: Exact types that :func:`encode_value` returns unchanged, and the ones
#: :func:`decode_value` does (a decoded float is always finite or tagged).
#: A list of only these is copied in one step instead of one call per item,
#: which is what the per-node index lists of a packed payload are.
_PLAIN_ENCODED = frozenset({type(None), bool, int, str})
_PLAIN_DECODED = _PLAIN_ENCODED | {float}

#: Module prefixes from which ``"$o"``-tagged entries may rebuild objects.
#: Store entries are data, not code: without this gate a tampered entry
#: could name any importable callable (``subprocess:Popen``) and have
#: :func:`decode_value` execute it with attacker-chosen kwargs.  Only
#: dataclasses defined under these prefixes are encodable/decodable;
#: anything else degrades to a bypass (encode) or a corrupt miss (decode).
_STATE_MODULE_PREFIXES = ("repro.",)


def _state_module_allowed(module_name: str) -> bool:
    return module_name == "repro" or module_name.startswith(_STATE_MODULE_PREFIXES)


# ---------------------------------------------------------------------- #
# Canonical payload encoding                                              #
# ---------------------------------------------------------------------- #
def encode_value(value: Any) -> Any:
    """JSON-representable canonical form of a result-payload value.

    Scalars pass through; tuples, sets, bytes, non-finite floats and dicts
    with non-string keys are wrapped in single-key ``"$"``-tag objects so
    :func:`decode_value` can restore the exact Python value.  Set elements
    and tagged dict pairs are sorted by their canonical JSON rendering,
    making the encoding order-independent.  Values outside the encodable
    universe raise :class:`~repro.core.errors.StorePayloadError`.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return {"$f": "nan"}
        if math.isinf(value):
            return {"$f": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, list):
        if _PLAIN_ENCODED.issuperset(map(type, value)):
            return list(value)
        return [encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {"$t": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"$s": encoded}
    if isinstance(value, bytes):
        return {"$b": value.hex()}
    if isinstance(value, dict):
        if all(isinstance(key, str) and not key.startswith("$") for key in value):
            return {key: encode_value(item) for key, item in value.items()}
        pairs = [[encode_value(key), encode_value(item)] for key, item in value.items()]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"$d": pairs}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Protocol node states (e.g. the coloring protocol's frozen
        # dataclass) are stored as their import path plus field values —
        # enough to rebuild the exact instance on decode.  Only allowlisted
        # modules are encodable: anything decode_value would refuse to
        # rebuild must not be written in the first place, or the entry
        # would be a permanent corrupt-recompute loop instead of a bypass.
        cls = type(value)
        if not _state_module_allowed(cls.__module__):
            raise StorePayloadError(
                f"dataclass {cls.__module__}:{cls.__qualname__} is outside "
                f"the store's state-module allowlist and has no canonical "
                f"encoding"
            )
        fields = {
            f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"$o": [f"{cls.__module__}:{cls.__qualname__}", fields]}
    raise StorePayloadError(
        f"value of type {type(value).__name__} has no canonical store encoding"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`; malformed tags raise ``StorePayloadError``."""
    if isinstance(value, list):
        if _PLAIN_DECODED.issuperset(map(type, value)):
            return list(value)
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tags = _TAGS.intersection(value)
        if not tags:
            return {key: decode_value(item) for key, item in value.items()}
        if len(value) != 1:
            raise StorePayloadError(f"malformed tagged value: {value!r}")
        (tag,) = tags
        body = value[tag]
        if tag == "$t":
            return tuple(decode_value(item) for item in body)
        if tag == "$s":
            return frozenset(decode_value(item) for item in body)
        if tag == "$d":
            return {decode_value(key): decode_value(item) for key, item in body}
        if tag == "$b":
            return bytes.fromhex(body)
        if tag == "$o":
            try:
                path, fields = body
                module_name, _, qualname = path.partition(":")
                if not isinstance(fields, dict) or not _state_module_allowed(
                    module_name
                ):
                    raise StorePayloadError(
                        f"stored object path {path!r} is outside the "
                        f"state-module allowlist"
                    )
                obj: Any = importlib.import_module(module_name)
                for part in qualname.split("."):
                    obj = getattr(obj, part)
                if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
                    raise StorePayloadError(
                        f"stored object path {path!r} does not name a dataclass"
                    )
                return obj(
                    **{key: decode_value(item) for key, item in fields.items()}
                )
            except StorePayloadError:
                raise
            except Exception as exc:  # noqa: BLE001 — entry is data, not code
                raise StorePayloadError(
                    f"cannot rebuild stored object from {value!r}: {exc}"
                ) from exc
        if body == "nan":
            return float("nan")
        if body == "inf":
            return float("inf")
        if body == "-inf":
            return float("-inf")
        raise StorePayloadError(f"malformed float tag: {value!r}")
    return value


def canonical_json(value: Any) -> str:
    """The one deterministic JSON rendering of an encodable value."""
    return json.dumps(
        encode_value(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


# ---------------------------------------------------------------------- #
# Spec hashing                                                            #
# ---------------------------------------------------------------------- #
def _normalize_json(value: Any, *, context: str) -> Any:
    """JSON-world normal form of a spec field (tuples and lists coincide)."""
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise StorePayloadError(f"non-finite float in {context} has no canonical hash")
        return value
    if isinstance(value, (list, tuple)):
        return [_normalize_json(item, context=context) for item in value]
    if isinstance(value, Mapping):
        normalized = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise StorePayloadError(
                    f"non-string key {key!r} in {context} has no canonical hash"
                )
            normalized[key] = _normalize_json(item, context=context)
        return normalized
    raise StorePayloadError(
        f"value of type {type(value).__name__} in {context} has no canonical hash"
    )


def canonical_spec_payload(spec: RunSpec | Mapping[str, Any]) -> dict[str, Any]:
    """The exact document :func:`spec_hash` digests.

    Dictionaries are first resolved through :meth:`RunSpec.from_dict`, so
    partial dicts hash identically to the fully defaulted spec they denote,
    and a ``to_dict`` → JSON → ``from_dict`` round trip is hash-invariant.
    """
    if isinstance(spec, RunSpec):
        data = spec.to_dict()
    elif isinstance(spec, Mapping):
        data = RunSpec.from_dict(spec).to_dict()
    else:
        raise StorePayloadError(
            f"cannot hash {type(spec).__name__}; expected a RunSpec or a mapping"
        )
    # Neither the shard count nor the backend tier changes a result (every
    # engine draws from the one counter pick stream; the tiers are
    # parity-locked), so both canonicalize away and a result computed any
    # way warms every other way's lookups.
    data["shards"] = None
    data["backend"] = "auto"
    return {
        "schema": STORE_SCHEMA_VERSION,
        "spec": _normalize_json(data, context=f"spec {data.get('protocol')!r}"),
    }


def canonical_spec_json(spec: RunSpec | Mapping[str, Any]) -> str:
    """Canonical JSON rendering of :func:`canonical_spec_payload`."""
    return json.dumps(
        canonical_spec_payload(spec),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def spec_hash(spec: RunSpec | Mapping[str, Any]) -> str:
    """SHA-256 content address of a spec (hex, 64 characters)."""
    return hashlib.sha256(canonical_spec_json(spec).encode("utf-8")).hexdigest()


def spec_cacheable(spec: RunSpec) -> bool:
    """Whether *spec*'s results are content-addressable.

    An unseeded spec (``seed=None``) draws fresh randomness every run, so
    no hash of the spec describes its result — such runs always bypass the
    store (the issue's unseeded-spec escape hatch).  Everything derived
    from a concrete seed — graph seed, adversary seed, repetition and
    sweep-cell seeds — is a pure function of the spec, so a seeded spec is
    always cacheable.
    """
    return spec.seed is not None


def timeout_message(spec: RunSpec) -> str:
    """The engines' timeout message for *spec*, reconstructed from its budgets.

    Every backend raises ``OutputNotReachedError`` with this exact text
    (locked by the engine sources), so a cached non-terminating result can
    re-raise indistinguishably from a live run.
    """
    if spec.environment == "async":
        return f"no output configuration within {spec.max_events} events"
    # sync and dynamic are both round-budgeted (a dynamic run's budget is
    # the total across its stabilisation segments).
    return f"no output configuration within {spec.max_rounds} rounds"


# ---------------------------------------------------------------------- #
# Result payloads                                                         #
# ---------------------------------------------------------------------- #
#: ExecutionResult fields persisted in a store entry.  The graph is
#: deliberately absent: a cacheable spec rebuilds it deterministically from
#: its graph seed, so storing it would only duplicate data.
_RESULT_FIELDS = (
    "protocol_name",
    "reached_output",
    "final_states",
    "outputs",
    "rounds",
    "time_units",
    "elapsed_time",
    "total_node_steps",
    "total_messages",
    "seed",
    "metadata",
)


#: Stands for "no value at this node" between the packed tables and Python.
_NOTHING = object()


def result_to_payload(result: ExecutionResult) -> dict[str, Any]:
    """Plain-data form of an :class:`ExecutionResult` (graph omitted).

    ``final_states`` and ``outputs`` are packed (see :func:`_pack`):
    ``final_states`` as ``{"states": [...], "index": [...]}`` and
    ``outputs`` as ``{"values": [...], "index": [...]}``, whose index holds
    :data:`NO_OUTPUT` for a node without an output, one slot per node of
    ``result.graph``.  A run has few distinct states and output values and
    many nodes, so this keeps entries and service answers small.  Outputs
    keyed by anything but the graph's nodes have no packed form and raise
    :class:`StorePayloadError`.
    """
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    nodes = result.graph.num_nodes
    outputs = result.outputs
    if set(map(type, outputs)) - {int} or (
        outputs and not 0 <= min(outputs) <= max(outputs) < nodes
    ):
        raise StorePayloadError("outputs are not keyed by node index")
    payload["final_states"] = _pack(result.final_states, "states")
    payload["outputs"] = _pack(
        list(map(outputs.get, range(nodes), repeat(_NOTHING))), "values"
    )
    return payload


def payload_to_result(payload: Mapping[str, Any], graph: Any) -> ExecutionResult:
    """Rehydrate a stored payload onto a freshly rebuilt *graph*."""
    if not isinstance(payload, Mapping) or set(payload) != set(_RESULT_FIELDS):
        raise StorePayloadError("store entry payload does not describe a result")
    data = dict(payload)
    data["final_states"] = tuple(_unpack(data["final_states"], "states"))
    values = _unpack(data["outputs"], "values", missing=True)
    if len(values) != graph.num_nodes:
        raise StorePayloadError("outputs index does not hold one slot per node")
    data["outputs"] = {
        node: value for node, value in enumerate(values) if value is not _NOTHING
    }
    return ExecutionResult(graph=graph, **data)


def _pack(values: list | tuple, name: str) -> dict[str, list]:
    """``{name: table, "index": slots}``: each distinct value once, one slot per node.

    The table holds the distinct values in order of first appearance and
    ``slots[i]`` is the table position of ``values[i]``, or
    :data:`NO_OUTPUT` where ``values[i]`` is ``_NOTHING``.  Values are told
    apart by their canonical encoding, not by Python equality, so ``1``,
    ``True`` and ``1.0`` keep separate slots.
    """
    by_text: dict[str, int] = {}
    # By id(): engines share state objects, and the values stay alive here.
    slot_of: dict[int, int] = {id(_NOTHING): NO_OUTPUT}
    table: list[Any] = []
    index: list[int] = []
    for value in values:
        slot = slot_of.get(id(value))
        if slot is None:
            slot = by_text.setdefault(canonical_json(value), len(table))
            if slot == len(table):
                table.append(value)
            slot_of[id(value)] = slot
        index.append(slot)
    return {name: table, "index": index}


def _unpack(packed: Any, name: str, *, missing: bool = False) -> list:
    """The per-node values of a table :func:`_pack` wrote under *name*.

    The table must be exactly what :func:`_pack` writes: plain-int slots,
    every table entry used, in order of first appearance, and
    :data:`NO_OUTPUT` only when *missing* allows it (it reads back as
    ``_NOTHING``).  Anything else raises :class:`StorePayloadError`.
    """
    if not (isinstance(packed, Mapping) and set(packed) == {name, "index"}):
        raise StorePayloadError(f"not a packed {name} table")
    table, index = packed[name], packed["index"]
    if not (isinstance(table, list) and isinstance(index, list)):
        raise StorePayloadError(f"packed {name} table or index is not a list")
    if set(map(type, index)) - {int}:
        raise StorePayloadError(f"packed {name} index holds a non-int slot")
    first = dict.fromkeys(index)
    if missing:
        first.pop(NO_OUTPUT, None)
    # Slots whose first appearances run 0, 1, 2, ... through the table.
    if list(first) != list(range(len(table))):
        raise StorePayloadError(f"packed {name} index does not match its table")
    return list(map([*table, _NOTHING].__getitem__, index))


# ---------------------------------------------------------------------- #
# The persistent store                                                    #
# ---------------------------------------------------------------------- #
class ResultStore:
    """A sharded directory-of-JSON result cache with atomic writes.

    Entries live at ``<root>/<hash[:2]>/<hash>.json`` as canonical JSON
    envelopes ``{"schema", "spec_hash", "spec", "payload"}`` — no
    timestamps or other nondeterminism, so the entry a warm rerun would
    write is byte-identical to the one already on disk.  Writes go through
    a same-directory temp file and ``os.replace``, which makes concurrent
    writers (two pooled workers finishing the same spec) safe: the last
    rename wins and every intermediate state of the file system is either
    the old entry, the new entry, or no entry.

    Reads never raise on bad data: an unreadable, truncated, garbage or
    wrong-schema entry is counted in ``corrupt``, deleted best-effort and
    reported as a miss, so the caller recomputes and repairs.  Counters
    (``hits`` / ``misses`` / ``bypasses`` / ``writes`` / ``corrupt`` /
    ``evicted``) are per-handle and folded into the owning session's cache
    accounting via :meth:`repro.api.Simulation.cache_info`.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.writes = 0
        self.corrupt = 0
        self.evicted = 0

    # -- paths --------------------------------------------------------- #
    def path_for(self, digest: str) -> Path:
        """On-disk location of the entry for *digest*."""
        return self.root / digest[:2] / f"{digest}.json"

    def _entry_paths(self) -> list[Path]:
        return sorted(self.root.glob("??/*.json"))

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return len(self._entry_paths())

    # -- read / write -------------------------------------------------- #
    def get(self, digest: str) -> Any:
        """The decoded payload stored under *digest*, or ``None``.

        Missing entries count as misses; existing-but-invalid entries
        additionally count as ``corrupt`` and are deleted so the next
        write repairs them.  This method never raises on bad entries.
        """
        path = self.path_for(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            self.misses += 1
            return None
        payload = None
        try:
            envelope = json.loads(text)
        except ValueError:
            envelope = None
        if (
            isinstance(envelope, dict)
            and envelope.get("schema") == STORE_SCHEMA_VERSION
            and envelope.get("spec_hash") == digest
            and "payload" in envelope
        ):
            try:
                payload = decode_value(envelope["payload"])
            except Exception:  # noqa: BLE001 — any malformed entry is corrupt
                payload = None
        if payload is None:
            self.corrupt += 1
            self.misses += 1
            self._drop(path)
            return None
        self.hits += 1
        return payload

    def put(self, digest: str, payload: Any, *, spec: Mapping[str, Any] | None = None) -> None:
        """Atomically persist *payload* under *digest*.

        ``spec`` optionally embeds the originating spec dictionary in the
        envelope, keeping entries self-describing for debugging and GC
        tooling.  Raises :class:`StorePayloadError` when the payload has no
        canonical encoding — callers treat that as a bypass.
        """
        envelope: dict[str, Any] = {
            "schema": STORE_SCHEMA_VERSION,
            "spec_hash": digest,
            "payload": encode_value(payload),
        }
        if spec is not None:
            envelope["spec"] = _normalize_json(spec, context="stored spec")
        text = json.dumps(
            envelope, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                tmp.write(text)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1

    def note_bypass(self) -> None:
        """Count one store bypass (unseeded or otherwise uncacheable work)."""
        self.bypasses += 1

    def absorb_worker_writes(self, writes: int) -> None:
        """Fold pooled workers' write counts into this handle's counters."""
        self.writes += writes

    # -- maintenance --------------------------------------------------- #
    def stats(self) -> dict[str, int]:
        """Counters of this handle plus the on-disk entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "entries": self.entry_count(),
        }

    def gc(
        self,
        *,
        max_entries: int | None = None,
        max_age_seconds: float | None = None,
    ) -> int:
        """Evict entries beyond the given bounds; return how many were removed.

        ``max_age_seconds`` drops entries whose file modification time is
        older than the horizon; ``max_entries`` then keeps only the newest
        entries by the same clock.  Eviction is safe at any time — an
        evicted popular spec simply recomputes and re-enters on next use.
        """
        removed = 0
        entries: list[tuple[float, Path]] = []
        for path in self._entry_paths():
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        if max_age_seconds is not None:
            horizon = time.time() - max_age_seconds
            fresh = []
            for mtime, path in entries:
                if mtime < horizon:
                    removed += self._drop(path)
                else:
                    fresh.append((mtime, path))
            entries = fresh
        if max_entries is not None and len(entries) > max_entries:
            entries.sort(reverse=True)
            for _, path in entries[max_entries:]:
                removed += self._drop(path)
        self.evicted += removed
        return removed

    def clear(self) -> int:
        """Remove every entry; return how many were removed."""
        return self.gc(max_entries=0)

    def _drop(self, path: Path) -> int:
        try:
            path.unlink()
            return 1
        except OSError:
            return 0


# ---------------------------------------------------------------------- #
# Spec-level convenience used by the session and the executor             #
# ---------------------------------------------------------------------- #
def fetch(store: ResultStore, spec: RunSpec, *, graph: Any = None) -> ExecutionResult | None:
    """The cached :class:`ExecutionResult` of *spec*, or ``None``.

    Bypasses uncacheable specs (counted), rebuilds the graph from the spec
    when the caller does not supply one, and degrades malformed payloads to
    misses (the entry is dropped so the recompute repairs it).
    """
    if not spec_cacheable(spec):
        store.note_bypass()
        return None
    digest = spec_hash(spec)
    payload = store.get(digest)
    if payload is None:
        return None
    if graph is None:
        graph = spec.build_graph()
    try:
        result = payload_to_result(payload, graph)
        if spec.environment == "dynamic":
            # A dynamic run ends on the *final* churn snapshot, not the base
            # graph the spec builds.  The snapshot is a pure function of the
            # spec (the schedule samples against topology state only), so
            # replay it rather than persist it; the recorded disturbance
            # count (clamped — store entries are data, not trusted input)
            # handles runs that timed out mid-schedule.
            from repro.graphs.dynamic import DynamicGraph, derive_churn_seed

            policy = spec.build_churn()
            key = (
                spec.churn_seed
                if spec.churn_seed is not None
                else derive_churn_seed(spec.seed)
            )
            dynamic = DynamicGraph(graph, policy.start(graph.num_nodes, key))
            applied = min(
                max(int(result.metadata.get("disturbances", 0)), 0),
                dynamic.num_disturbances,
            )
            for _ in range(applied):
                dynamic.advance()
            result.graph = dynamic.snapshot
        return result
    except Exception:  # noqa: BLE001 — malformed entries degrade to misses
        # get() above already counted this lookup as a hit; reclassify it
        # so hits + misses keeps matching lookups in the cache accounting.
        store.hits -= 1
        store.misses += 1
        store.corrupt += 1
        store._drop(store.path_for(digest))
        return None


def stash(store: ResultStore, spec: RunSpec, result: ExecutionResult) -> bool:
    """Persist *result* under *spec*'s hash; ``False`` when not cacheable.

    Serialization failures (exotic protocol state types) degrade to a
    counted bypass — the caller already has the live result, so nothing is
    lost beyond future cache hits.
    """
    if not spec_cacheable(spec):
        return False
    try:
        store.put(spec_hash(spec), result_to_payload(result), spec=spec.to_dict())
    except StorePayloadError:
        store.note_bypass()
        return False
    return True
