"""Property tests for the result store's canonical spec hashing.

The content-addressable store is only correct if the hash is a *canonical*
function of the spec: invariant under dict key order, ``to_dict`` → JSON →
``from_dict`` round trips and partial-dict defaulting, while *every* field
change — top-level or nested — produces a different hash.  Hypothesis
explores those invariants over the spec space; a handful of golden hashes
pin the byte-level contract so an accidental canonicalization change (or a
forgotten ``STORE_SCHEMA_VERSION`` bump) fails loudly instead of silently
orphaning every existing store.

The suite skips cleanly when Hypothesis is not installed (it is a test-only
dependency; CI installs it explicitly).
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.api import RunSpec, spec_hash  # noqa: E402
from repro.api.store import (  # noqa: E402
    STORE_SCHEMA_VERSION,
    canonical_json,
    canonical_spec_json,
    canonical_spec_payload,
    decode_value,
    encode_value,
    payload_to_result,
    result_to_payload,
)
from repro.core.results import ExecutionResult  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# JSON-representable parameter values (what a spec can carry through a file).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@st.composite
def specs_strategy(draw):
    """Valid ``RunSpec`` instances (the adversary axis is async-only)."""
    environment = draw(st.sampled_from(["sync", "async"]))
    if environment == "async":
        adversary = draw(st.none() | st.sampled_from(["uniform", "bursty"]))
        adversary_seed = draw(st.none() | st.integers(min_value=0, max_value=2**31))
    else:
        adversary = None
        adversary_seed = None
    # Every environment takes shards= since schema version 5 (an async run
    # stays on one process).
    shards = draw(st.none() | st.integers(min_value=1, max_value=8))
    params = st.dictionaries(st.text(min_size=1, max_size=6), json_values, max_size=3)
    return RunSpec(
        protocol=draw(st.sampled_from(["mis", "coloring", "broadcast"])),
        nodes=draw(st.integers(min_value=1, max_value=512)),
        graph=draw(st.none() | st.sampled_from(["gnp_sparse", "random_tree", "path"])),
        environment=environment,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        graph_seed=draw(st.none() | st.integers(min_value=0, max_value=2**31)),
        adversary=adversary,
        adversary_seed=adversary_seed,
        protocol_params=draw(params),
        graph_params=draw(params),
        inputs=draw(params),
        max_rounds=draw(st.integers(min_value=1, max_value=10**6)),
        max_events=draw(st.integers(min_value=1, max_value=10**7)),
        shards=shards,
    )


specs = specs_strategy()


# ---------------------------------------------------------------------- #
# Hash invariances                                                        #
# ---------------------------------------------------------------------- #
@COMMON
@given(spec=specs)
def test_hash_invariant_under_dict_round_trip(spec):
    """to_dict → JSON → from_dict never changes the hash."""
    rehydrated = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert spec_hash(rehydrated) == spec_hash(spec)


@COMMON
@given(spec=specs)
def test_hash_invariant_under_key_order(spec):
    """A reversed-key spec dictionary hashes identically."""
    data = spec.to_dict()
    reversed_keys = {key: data[key] for key in reversed(list(data))}
    assert spec_hash(reversed_keys) == spec_hash(spec)


@COMMON
@given(spec=specs)
def test_partial_dict_hashes_like_defaulted_spec(spec):
    """Dropping default-valued keys does not change the hash."""
    data = spec.to_dict()
    defaults = RunSpec(protocol=spec.protocol).to_dict()
    partial = {
        key: value
        for key, value in data.items()
        if key == "protocol" or value != defaults.get(key)
    }
    assert spec_hash(partial) == spec_hash(spec)


@COMMON
@given(spec=specs, delta=st.integers(min_value=1, max_value=1000))
def test_seed_change_changes_hash(spec, delta):
    assert spec_hash(spec.replace(seed=spec.seed + delta)) != spec_hash(spec)


@COMMON
@given(spec=specs, delta=st.integers(min_value=1, max_value=1000))
def test_nodes_change_changes_hash(spec, delta):
    assert spec_hash(spec.replace(nodes=spec.nodes + delta)) != spec_hash(spec)


@COMMON
@given(spec=specs, value=st.integers(min_value=0, max_value=2**31))
def test_nested_param_change_changes_hash(spec, value):
    """A nested protocol parameter lands in the hash."""
    changed = spec.replace(
        protocol_params={**spec.protocol_params, "__probe__": value}
    )
    assert spec_hash(changed) != spec_hash(spec)


@COMMON
@given(
    spec=specs,
    shards_a=st.none() | st.integers(1, 16),
    shards_b=st.none() | st.integers(1, 16),
)
def test_hash_is_shard_count_invariant(spec, shards_a, shards_b):
    """Sharding changes no result, so the hash ignores the shard count.

    Every engine draws from the one counter pick stream, so ``None``, ``1``
    and every larger shard count are the same run and one cache entry
    serves them all — in every environment, since dynamic segments shard
    under the same contract and an async run stays on one process.
    """
    assert spec_hash(spec.replace(shards=shards_a)) == spec_hash(
        spec.replace(shards=shards_b)
    )
    for shards in (None, 1, 2, 16):
        assert spec_hash(spec.replace(shards=shards)) == spec_hash(spec)


@COMMON
@given(
    spec=specs,
    backend_a=st.sampled_from(["python", "vectorized", "auto"]),
    backend_b=st.sampled_from(["python", "vectorized", "auto"]),
)
def test_hash_is_backend_invariant(spec, backend_a, backend_b):
    """Every backend tier is bitwise-identical, so the hash ignores it.

    The store addresses *results*, and the whole point of the parity-locked
    tier ladder is that ``python`` and ``vectorized`` produce the same
    result for the same spec — one cache entry serves them all.
    """
    if "python" in (backend_a, backend_b) and spec.shards is not None:
        spec = spec.replace(shards=None)  # sharding rejects the python tier
    assert spec_hash(spec.replace(backend=backend_a)) == spec_hash(
        spec.replace(backend=backend_b)
    )


@COMMON
@given(spec=specs)
def test_canonical_json_is_deterministic(spec):
    """Two renderings of the same spec are byte-identical."""
    assert canonical_spec_json(spec) == canonical_spec_json(spec.to_dict())
    payload = canonical_spec_payload(spec)
    assert payload["schema"] == STORE_SCHEMA_VERSION


# ---------------------------------------------------------------------- #
# Payload encoding round trips                                            #
# ---------------------------------------------------------------------- #
payload_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.binary(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.tuples(children, children)
    | st.dictionaries(st.integers(min_value=-50, max_value=50), children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


@COMMON
@given(value=payload_values)
def test_encode_decode_round_trip(value):
    """decode(encode(v)) == v and the encoding is JSON-serializable."""
    encoded = encode_value(value)
    json.dumps(encoded, allow_nan=False)
    assert decode_value(encoded) == value


@COMMON
@given(value=st.frozensets(st.integers(min_value=-100, max_value=100), max_size=6))
def test_frozenset_round_trip_is_order_independent(value):
    encoded_a = encode_value(value)
    encoded_b = encode_value(frozenset(sorted(value, reverse=True)))
    assert encoded_a == encoded_b
    assert decode_value(encoded_a) == value


#: Output and state values a packed table must keep apart: ``1``, ``True``
#: and ``1.0`` are equal in Python but not in the canonical encoding.
node_values = st.sampled_from([0, 1, True, False, 0.0, 1.0, None, "in", (1,), (True,)])


@st.composite
def packed_results(draw):
    """Results whose outputs cover every node, some nodes or none."""
    nodes = draw(st.integers(min_value=1, max_value=12))
    outputs = draw(
        st.just({})
        | st.dictionaries(st.integers(min_value=0, max_value=nodes - 1), node_values)
        | st.lists(node_values, min_size=nodes, max_size=nodes).map(
            lambda values: dict(enumerate(values))
        )
    )
    return ExecutionResult(
        protocol_name="probe",
        graph=Graph(nodes),
        reached_output=draw(st.booleans()),
        final_states=tuple(draw(st.lists(node_values, min_size=nodes, max_size=nodes))),
        outputs=outputs,
        rounds=draw(st.integers(min_value=0, max_value=100)),
        seed=draw(st.none() | st.integers(min_value=0, max_value=2**31)),
    )


@COMMON
@given(result=packed_results())
def test_packed_result_round_trip(result):
    """result_to_payload -> canonical_json -> decode_value -> payload_to_result
    restores every output and state with its exact type, and re-encodes to
    the same bytes."""
    text = canonical_json(result_to_payload(result))
    rebuilt = payload_to_result(decode_value(json.loads(text)), result.graph)
    assert rebuilt == result
    # The canonical rendering tells 1, True and 1.0 apart; dict order aside.
    assert canonical_json(rebuilt.outputs) == canonical_json(result.outputs)
    assert canonical_json(rebuilt.final_states) == canonical_json(result.final_states)
    assert list(rebuilt.outputs) == sorted(result.outputs)
    assert canonical_json(result_to_payload(rebuilt)) == text


# ---------------------------------------------------------------------- #
# Golden hashes — the byte-level contract                                 #
# ---------------------------------------------------------------------- #
#: Pinned canonical hashes, each with every spec that must hash to it.
#: These change ONLY when the spec schema or the canonicalization rules
#: change — and any such change must come with a STORE_SCHEMA_VERSION bump
#: (which changes every hash by construction).
GOLDEN_HASHES = {
    # The shard count canonicalizes away: sharded and unsharded runs of a
    # spec share one address.
    "5d6f8193a10cbb36c57cd281d9fb91f4ce6db6aed02405cbda854382e0266529": (
        RunSpec(protocol="mis", nodes=32, seed=5),
        RunSpec(protocol="mis", nodes=32, seed=5, shards=4),
    ),
    "df04770dfb2970b3f165f1832fe14baa2749c2536237c88809ff0b0e122adda1": (
        RunSpec(protocol="coloring", nodes=16, seed=3, graph="random_tree"),
    ),
    # Async specs take a shard count too; it canonicalizes away here as well.
    "6bfa198ba7a5d68e7e6dd3af26061b5e4f5466f5fa91177cd1a4e547803c6e60": (
        RunSpec(protocol="mis", environment="async", nodes=12, seed=7, adversary="uniform"),
        RunSpec(
            protocol="mis",
            environment="async",
            nodes=12,
            seed=7,
            adversary="uniform",
            shards=4,
        ),
    ),
    # Dynamic spec: the churn fields are part of the canonical rendering.
    "7954fa7ffd331198f52fdc40ac5d727bec840d86fccd8bb1fb0ab328ae81f65c": (
        RunSpec(
            protocol="mis",
            nodes=24,
            seed=11,
            environment="dynamic",
            churn="burst",
            churn_params={"flips": 3},
        ),
    ),
}


def test_schema_version_is_pinned():
    # Version 8: payloads pack outputs like final_states, with a marker
    # slot for nodes without an output.  Version 7: payloads pack
    # final_states as a table of distinct states plus one index per node.
    # Version 6: every engine draws from the one counter pick stream, so
    # the shard count canonicalizes away like the backend (version 5 made
    # shards legal for the async and dynamic environments; version 4 added
    # the dynamic environment's churn fields; version 3 canonicalized the
    # backend field to "auto").
    assert STORE_SCHEMA_VERSION == 8


@pytest.mark.parametrize("digest", sorted(GOLDEN_HASHES))
def test_golden_hashes(digest):
    for spec in GOLDEN_HASHES[digest]:
        assert spec_hash(spec) == digest


def test_golden_canonical_json():
    """The full canonical rendering of one spec, byte for byte."""
    assert canonical_spec_json(RunSpec(protocol="mis", nodes=32, seed=5)) == (
        '{"schema":8,"spec":{"adversary":null,"adversary_params":{},'
        '"adversary_seed":null,"backend":"auto","churn":null,'
        '"churn_params":{},"churn_seed":null,"environment":"sync",'
        '"graph":null,"graph_params":{},"graph_seed":null,"inputs":{},'
        '"max_events":5000000,"max_rounds":100000,"nodes":32,'
        '"protocol":"mis","protocol_params":{},"seed":5,"shards":null}}'
    )
