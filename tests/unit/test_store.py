"""Unit tests for the content-addressable result store.

The store's contract has three load-bearing clauses, each locked here:

* **Corruption tolerance** — a truncated, garbage, wrong-schema or
  wrong-hash entry is *never* an exception: reads degrade to counted
  misses, the bad entry is deleted, and the recompute repairs it in place.
* **Concurrent-writer safety** — atomic temp-file + rename writes mean any
  number of processes racing on the same digest leave exactly one valid
  entry (and no temp droppings).
* **Exact accounting** — hits, misses, bypasses, writes, corruption and
  eviction are counted per handle and surface through
  ``Simulation.cache_info()``.
"""

import json
import multiprocessing
import os

import pytest

from repro.api import RunSpec, Simulation
from repro.api.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    canonical_json,
    decode_value,
    encode_value,
    fetch,
    result_to_payload,
    spec_cacheable,
    spec_hash,
    stash,
    timeout_message,
)
from repro.core.counters import engine_runs
from repro.core.errors import OutputNotReachedError, StorePayloadError

SPEC = RunSpec(protocol="mis", nodes=24, seed=9)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


# ---------------------------------------------------------------------- #
# Encoding                                                                #
# ---------------------------------------------------------------------- #
def test_encode_decode_preserves_result_shapes():
    value = {
        "final_states": ("a", "b"),
        "outputs": {0: True, 3: False},
        "levels": frozenset({1, 2, 3}),
        "blob": b"\x00\xff",
        "metrics": {"nan": float("nan"), "inf": float("inf")},
    }
    decoded = decode_value(encode_value(value))
    assert decoded["final_states"] == ("a", "b")
    assert decoded["outputs"] == {0: True, 3: False}
    assert decoded["levels"] == frozenset({1, 2, 3})
    assert decoded["blob"] == b"\x00\xff"
    assert decoded["metrics"]["nan"] != decoded["metrics"]["nan"]  # NaN
    assert decoded["metrics"]["inf"] == float("inf")


def test_encode_dataclass_round_trip():
    """Protocol node states (frozen dataclasses) survive the store."""
    from repro.protocols.coloring import ColoringState

    state = ColoringState(mode="COLORED", next_round=1, degree=None,
                          proposal=None, color=2, parked_colors=None)
    encoded = encode_value(state)
    json.dumps(encoded)  # JSON-serializable
    assert decode_value(encoded) == state


def test_encode_rejects_exotic_types():
    with pytest.raises(StorePayloadError):
        encode_value(object())


def test_decode_rejects_malformed_tags():
    with pytest.raises(StorePayloadError):
        decode_value({"$f": "not-a-float"})
    with pytest.raises(StorePayloadError):
        decode_value({"$t": [], "extra": 1})
    with pytest.raises(StorePayloadError):
        decode_value({"$o": ["no.such.module:Nope", {}]})


def test_decode_never_imports_outside_the_state_allowlist():
    """A tampered "$o" entry must not become arbitrary code execution."""
    with pytest.raises(StorePayloadError):
        decode_value({"$o": ["subprocess:Popen", {"args": ["true"]}]})
    with pytest.raises(StorePayloadError):
        decode_value({"$o": ["os:system", {"command": "true"}]})
    # Allowlisted module, but the path does not name a dataclass.
    with pytest.raises(StorePayloadError):
        decode_value({"$o": ["repro.api.store:ResultStore", {"root": "/tmp/x"}]})


def test_encode_rejects_dataclasses_outside_the_allowlist():
    """Foreign dataclasses degrade to a bypass, not an undecodable entry."""
    import dataclasses

    @dataclasses.dataclass(frozen=True)
    class Foreign:
        value: int

    with pytest.raises(StorePayloadError):
        encode_value(Foreign(value=1))


def test_canonical_json_sorts_and_compacts():
    assert canonical_json({"b": 1, "a": (2,)}) == '{"a":{"$t":[2]},"b":1}'


def test_unseeded_spec_is_not_cacheable():
    assert spec_cacheable(SPEC)
    assert not spec_cacheable(SPEC.replace(seed=None))


# ---------------------------------------------------------------------- #
# Read / write basics                                                     #
# ---------------------------------------------------------------------- #
def test_put_get_round_trip(store):
    digest = spec_hash(SPEC)
    store.put(digest, {"rounds": 7}, spec=SPEC.to_dict())
    assert store.get(digest) == {"rounds": 7}
    assert store.path_for(digest).exists()
    assert store.path_for(digest).parent.name == digest[:2]
    assert store.stats()["writes"] == 1
    assert store.stats()["hits"] == 1
    assert store.stats()["entries"] == 1


def test_missing_entry_is_a_plain_miss(store):
    assert store.get(spec_hash(SPEC)) is None
    stats = store.stats()
    assert stats["misses"] == 1
    assert stats["corrupt"] == 0


def test_rewrite_is_byte_identical(store):
    """No timestamps or nondeterminism in entries: warm rewrites match."""
    digest = spec_hash(SPEC)
    store.put(digest, {"rounds": 7}, spec=SPEC.to_dict())
    first = store.path_for(digest).read_bytes()
    store.put(digest, {"rounds": 7}, spec=SPEC.to_dict())
    assert store.path_for(digest).read_bytes() == first


# ---------------------------------------------------------------------- #
# Corruption: recompute-and-repair, never crash                           #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "corruption",
    [
        pytest.param(lambda text, digest: text[: len(text) // 2], id="truncated"),
        pytest.param(lambda text, digest: "not json at all {{{", id="garbage"),
        pytest.param(lambda text, digest: "\x00\x01\x02", id="binary-noise"),
        pytest.param(
            lambda text, digest: json.dumps(
                {"schema": STORE_SCHEMA_VERSION + 1, "spec_hash": digest, "payload": {}}
            ),
            id="wrong-schema",
        ),
        pytest.param(
            lambda text, digest: json.dumps(
                {"schema": STORE_SCHEMA_VERSION, "spec_hash": "0" * 64, "payload": {}}
            ),
            id="wrong-hash",
        ),
        pytest.param(
            lambda text, digest: json.dumps(
                {"schema": STORE_SCHEMA_VERSION, "spec_hash": digest,
                 "payload": {"$f": "bogus"}}
            ),
            id="malformed-payload-tag",
        ),
        pytest.param(
            lambda text, digest: json.dumps(
                {"schema": STORE_SCHEMA_VERSION, "spec_hash": digest,
                 "payload": {"$b": "zz-not-hex"}}
            ),
            id="bad-hex-bytes",
        ),
        pytest.param(lambda text, digest: json.dumps([1, 2, 3]), id="not-an-object"),
    ],
)
def test_corrupt_entry_degrades_to_miss_and_is_repaired(store, corruption):
    digest = spec_hash(SPEC)
    store.put(digest, {"rounds": 7})
    path = store.path_for(digest)
    path.write_text(corruption(path.read_text(), digest), encoding="utf-8")

    assert store.get(digest) is None  # never raises
    assert store.stats()["corrupt"] == 1
    assert not path.exists()  # dropped, so the next write repairs

    store.put(digest, {"rounds": 7})
    assert store.get(digest) == {"rounds": 7}


def test_corrupt_result_payload_recomputes_through_session(tmp_path):
    """End to end: session hits a corrupted entry, recomputes and repairs."""
    session = Simulation(store=tmp_path / "store")
    first = session.simulate(SPEC)
    digest = spec_hash(SPEC)
    path = session.store.path_for(digest)
    path.write_text(path.read_text()[:40], encoding="utf-8")

    repaired = Simulation(store=tmp_path / "store")
    again = repaired.simulate(SPEC)
    assert again == first
    stats = repaired.store.stats()
    assert stats["corrupt"] == 1
    assert stats["misses"] == 1
    assert stats["writes"] == 1
    # The repair wrote a valid entry back.
    assert repaired.store.get(digest) is not None


def test_structurally_valid_but_wrong_result_payload(tmp_path):
    """A payload that decodes but does not describe a result is corrupt."""
    store = ResultStore(tmp_path / "store")
    digest = spec_hash(SPEC)
    store.put(digest, {"not": "a result"})
    assert fetch(store, SPEC) is None
    stats = store.stats()
    assert stats["corrupt"] == 1
    # The lookup is reclassified as a miss: hits + misses == lookups.
    assert stats["hits"] == 0
    assert stats["misses"] == 1
    assert not store.path_for(digest).exists()


# ---------------------------------------------------------------------- #
# Concurrent writers                                                      #
# ---------------------------------------------------------------------- #
def _hammer(root: str, digest: str, payload_rounds: int, iterations: int) -> None:
    writer = ResultStore(root)
    for _ in range(iterations):
        writer.put(digest, {"rounds": payload_rounds}, spec=SPEC.to_dict())


def test_concurrent_writers_leave_exactly_one_valid_entry(tmp_path):
    root = str(tmp_path / "store")
    digest = spec_hash(SPEC)
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    workers = [
        context.Process(target=_hammer, args=(root, digest, 7, 25))
        for _ in range(4)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0

    store = ResultStore(root)
    assert store.entry_count() == 1
    assert store.get(digest) == {"rounds": 7}
    # No temp-file droppings anywhere under the root.
    leftovers = [
        name
        for _, _, files in os.walk(root)
        for name in files
        if name.endswith(".tmp")
    ]
    assert leftovers == []


# ---------------------------------------------------------------------- #
# Session integration: bypasses, timeouts, counters                       #
# ---------------------------------------------------------------------- #
def test_unseeded_specs_bypass_the_store(tmp_path):
    session = Simulation(store=tmp_path / "store")
    unseeded = SPEC.replace(seed=None)
    session.simulate(unseeded)
    session.repeat(unseeded, 2)
    stats = session.store.stats()
    assert stats["entries"] == 0
    assert stats["writes"] == 0
    assert stats["bypasses"] == 2
    assert stats["hits"] == stats["misses"] == 0


@pytest.mark.parametrize("environment, adversary", [("sync", None), ("async", "uniform")])
def test_unseeded_runs_draw_fresh_randomness(tmp_path, environment, adversary):
    """seed=None means fresh picks per run — why unseeded specs bypass the
    store — on a fixed graph, in the synchronous and asynchronous engines."""
    session = Simulation(store=tmp_path / "store")
    spec = RunSpec(
        protocol="mis",
        graph="random_tree",
        nodes=64,
        seed=None,
        graph_seed=5,
        environment=environment,
        adversary=adversary,
    )
    finals = {session.simulate(spec).final_states for _ in range(5)}
    assert len(finals) >= 2
    assert session.store.stats()["bypasses"] == 5


def test_cached_timeout_reraises_identically(tmp_path):
    hopeless = SPEC.replace(max_rounds=1)
    cold = Simulation(store=tmp_path / "store")
    with pytest.raises(OutputNotReachedError) as cold_error:
        cold.simulate(hopeless)
    assert cold.store.stats()["writes"] == 1  # the partial result is cached

    warm = Simulation(store=tmp_path / "store")
    before = engine_runs()
    with pytest.raises(OutputNotReachedError) as warm_error:
        warm.simulate(hopeless)
    assert engine_runs() == before  # served from the store
    assert str(warm_error.value) == str(cold_error.value)
    assert str(warm_error.value) == timeout_message(hopeless)
    assert warm_error.value.result == cold_error.value.result


def test_stash_fetch_round_trip_preserves_result(tmp_path):
    session = Simulation()
    result = session.simulate(SPEC)
    store = ResultStore(tmp_path / "store")
    assert stash(store, SPEC, result)
    rehydrated = fetch(store, SPEC)
    assert rehydrated == result
    assert canonical_json(result_to_payload(rehydrated)) == canonical_json(
        result_to_payload(result)
    )


def test_cache_info_exposes_store_counters(tmp_path):
    session = Simulation(store=tmp_path / "store")
    session.simulate(SPEC)
    session.simulate(SPEC)
    info = session.cache_info()
    assert info["store"]["misses"] == 1
    assert info["store"]["hits"] == 1
    assert info["store"]["writes"] == 1


def test_store_accepts_path_and_string(tmp_path):
    by_path = Simulation(store=tmp_path / "a")
    by_string = Simulation(cache_dir=str(tmp_path / "b"))
    assert isinstance(by_path.store, ResultStore)
    assert isinstance(by_string.store, ResultStore)


# ---------------------------------------------------------------------- #
# Eviction                                                                #
# ---------------------------------------------------------------------- #
def test_gc_max_entries_keeps_newest(store):
    digests = []
    for seed in range(5):
        digest = spec_hash(SPEC.replace(seed=seed))
        store.put(digest, {"seed": seed})
        path = store.path_for(digest)
        stamp = 1_000_000 + seed
        os.utime(path, (stamp, stamp))
        digests.append(digest)

    removed = store.gc(max_entries=2)
    assert removed == 3
    assert store.entry_count() == 2
    assert store.stats()["evicted"] == 3
    assert store.get(digests[-1]) == {"seed": 4}
    assert store.get(digests[0]) is None


def test_gc_max_age_drops_old_entries(store):
    old = spec_hash(SPEC.replace(seed=1))
    new = spec_hash(SPEC.replace(seed=2))
    store.put(old, {"seed": 1})
    store.put(new, {"seed": 2})
    ancient = 1_000_000
    os.utime(store.path_for(old), (ancient, ancient))

    removed = store.gc(max_age_seconds=3600)
    assert removed == 1
    assert store.get(new) == {"seed": 2}
    assert store.get(old) is None


def test_clear_empties_the_store(store):
    for seed in range(3):
        store.put(spec_hash(SPEC.replace(seed=seed)), {"seed": seed})
    assert store.clear() == 3
    assert store.entry_count() == 0
    # An evicted spec simply recomputes on next use.
    session = Simulation(store=store)
    session.simulate(SPEC)
    assert store.entry_count() == 1
