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
    NO_OUTPUT,
    STORE_SCHEMA_VERSION,
    ResultStore,
    canonical_json,
    decode_value,
    encode_value,
    fetch,
    payload_to_result,
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


def test_payload_stores_each_distinct_state_once():
    result = Simulation().simulate(SPEC)
    result.final_states = (1, True, 1.0, 1, "x", True, (1,), (True,))
    packed = result_to_payload(result)["final_states"]
    # Keyed by canonical encoding: 1, True and 1.0 (and (1,), (True,)) differ.
    assert packed == {
        "states": [1, True, 1.0, "x", (1,), (True,)],
        "index": [0, 1, 2, 0, 3, 1, 4, 5],
    }
    decoded = decode_value(json.loads(canonical_json(result_to_payload(result))))
    rebuilt = payload_to_result(decoded, result.graph).final_states
    assert rebuilt == result.final_states
    assert [type(state) for state in rebuilt] == [type(state) for state in result.final_states]
    assert [type(state[0]) for state in rebuilt[-2:]] == [int, bool]


@pytest.mark.parametrize(
    "packed",
    [
        ("a", "b"),
        {"states": ["a"]},
        {"states": ["a"], "index": [0], "extra": 1},
        {"states": "a", "index": [0]},
        {"states": ["a"], "index": (0,)},
        {"states": ["a"], "index": [1]},
        {"states": ["a"], "index": [-1]},
        {"states": ["a"], "index": [True]},
        {"states": ["a"], "index": [0.0]},
        {"states": ["a", "b"], "index": [1, 0]},
        {"states": ["a", "b"], "index": [0, 0]},
    ],
)
def test_malformed_state_table_is_a_payload_error(packed):
    payload = result_to_payload(Simulation().simulate(SPEC))
    payload["final_states"] = packed
    with pytest.raises(StorePayloadError):
        payload_to_result(payload, SPEC.build_graph())


def test_malformed_state_table_degrades_to_a_miss(tmp_path):
    session = Simulation()
    store = ResultStore(tmp_path / "store")
    assert stash(store, SPEC, session.simulate(SPEC))
    payload = store.get(spec_hash(SPEC))
    payload["final_states"]["index"][0] = len(payload["final_states"]["states"])
    store.put(spec_hash(SPEC), payload)
    assert fetch(store, SPEC) is None
    assert store.stats()["corrupt"] == 1


def test_payload_stores_each_distinct_output_once():
    result = Simulation().simulate(SPEC)
    result.outputs = {3: 1, 0: True, 2: 1.0, 5: 1, 6: True, 7: (1,), 8: (True,)}
    packed = result_to_payload(result)["outputs"]
    # One slot per node, NO_OUTPUT where a node has no output; 1, True and
    # 1.0 (and (1,), (True,)) keep separate slots.
    assert packed == {
        "values": [True, 1.0, 1, (1,), (True,)],
        "index": [0, NO_OUTPUT, 1, 2, NO_OUTPUT, 2, 0, 3, 4]
        + [NO_OUTPUT] * (SPEC.nodes - 9),
    }
    decoded = decode_value(json.loads(canonical_json(result_to_payload(result))))
    rebuilt = payload_to_result(decoded, result.graph).outputs
    assert rebuilt == result.outputs
    assert list(rebuilt) == sorted(result.outputs)
    assert canonical_json(rebuilt) == canonical_json(result.outputs)


@pytest.mark.parametrize(
    "outputs",
    [{SPEC.nodes: True}, {-1: True}, {"0": True}, {True: True}, {0.0: True}],
    ids=["past-last-node", "negative", "str-key", "bool-key", "float-key"],
)
def test_outputs_not_keyed_by_node_are_bypassed(tmp_path, outputs):
    result = Simulation().simulate(SPEC)
    result.outputs = outputs
    with pytest.raises(StorePayloadError):
        result_to_payload(result)
    store = ResultStore(tmp_path / "store")
    assert not stash(store, SPEC, result)
    assert store.stats()["bypasses"] == 1


def _output_index(*tail):
    """A full-length outputs index: slot 0 everywhere, then *tail*."""
    return [0] * (SPEC.nodes - len(tail)) + list(tail)


@pytest.mark.parametrize(
    "packed",
    [
        {node: True for node in range(SPEC.nodes)},  # the schema-7 layout
        {"states": [True], "index": _output_index()},
        {"values": [True]},
        {"values": [True], "index": _output_index(), "extra": 1},
        {"values": True, "index": _output_index()},
        {"values": [True], "index": tuple(_output_index())},
        {"values": [True], "index": _output_index(1)},
        {"values": [True], "index": _output_index(-2)},
        {"values": [True, False], "index": _output_index()},
        {"values": [True, False], "index": [1] + _output_index(0)[1:]},
        {"values": [True], "index": _output_index(0.0)},
        {"values": [True], "index": _output_index(True)},
        {"values": [True], "index": _output_index("0")},
        {"values": [True], "index": _output_index()[1:]},
        {"values": [True], "index": _output_index(NO_OUTPUT)[1:]},
    ],
    ids=[
        "schema-7-dict", "states-key", "no-index", "extra-key", "values-not-list",
        "index-not-list", "bad-slot", "negative-slot", "unused-value",
        "out-of-order", "float-slot", "bool-slot", "str-slot", "short-index",
        "short-index-with-marker",
    ],
)
def test_malformed_output_table_is_a_payload_error(packed):
    payload = result_to_payload(Simulation().simulate(SPEC))
    payload["outputs"] = packed
    with pytest.raises(StorePayloadError):
        payload_to_result(payload, SPEC.build_graph())


def test_malformed_output_table_degrades_to_a_miss(tmp_path):
    session = Simulation()
    store = ResultStore(tmp_path / "store")
    assert stash(store, SPEC, session.simulate(SPEC))
    payload = store.get(spec_hash(SPEC))
    payload["outputs"]["index"][-1] = -2
    store.put(spec_hash(SPEC), payload)
    assert fetch(store, SPEC) is None
    stats = store.stats()
    assert stats["corrupt"] == 1
    assert stats["hits"] == 1  # the first get(); the fetch reads as a miss
    assert not store.path_for(spec_hash(SPEC)).exists()


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


def test_interrupted_write_leaves_no_temp_file(store, monkeypatch):
    """An interrupt between the temp file and the rename propagates and
    takes the temp file with it, so no entry or temp file is left."""
    digest = spec_hash(SPEC)

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        store.put(digest, {"rounds": 7})
    monkeypatch.undo()
    assert list(store.root.rglob("*.tmp")) == []
    assert store.entry_count() == 0 and store.writes == 0
    assert store.get(digest) is None


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


def test_refused_requests_count_no_engine_run():
    """A request refused during backend negotiation never builds an engine,
    so it adds nothing to the counter the zero-execution checks read; a
    successful run adds exactly one."""
    from repro.compilers import compile_to_asynchronous
    from repro.core.errors import ExecutionError
    from repro.graphs.generators import path_graph
    from repro.protocols.mis import MISProtocol

    session = Simulation()
    before = engine_runs()
    with pytest.raises(ExecutionError, match="per-transition observers"):
        session.run_protocol(
            path_graph(8),
            compile_to_asynchronous(MISProtocol()),
            environment="async",
            backend="vectorized",
            observer=lambda record: None,
        )
    with pytest.raises(ExecutionError, match="cannot shard"):
        session.run_protocol(path_graph(8), MISProtocol(), backend="python", shards=2)
    assert engine_runs() == before
    session.run_protocol(path_graph(8), MISProtocol(), seed=0)
    assert engine_runs() == before + 1


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
    by_string = Simulation(store=str(tmp_path / "b"))
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
