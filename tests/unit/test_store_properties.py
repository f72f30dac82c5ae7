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
    canonical_spec_json,
    canonical_spec_payload,
    decode_value,
    encode_value,
)

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
    # Every environment shards (sync rounds, async event buckets, dynamic
    # segments) since schema version 5.
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
    serves them all — in every environment, since async event buckets and
    dynamic segments shard under the same contract.
    """
    assert spec_hash(spec.replace(shards=shards_a)) == spec_hash(
        spec.replace(shards=shards_b)
    )
    for shards in (None, 1, 2, 16):
        assert spec_hash(spec.replace(shards=shards)) == spec_hash(spec)


@COMMON
@given(
    spec=specs,
    backend_a=st.sampled_from(["python", "vectorized", "kernel", "auto"]),
    backend_b=st.sampled_from(["python", "vectorized", "kernel", "auto"]),
)
def test_hash_is_backend_invariant(spec, backend_a, backend_b):
    """Every backend tier is bitwise-identical, so the hash ignores it.

    The store addresses *results*, and the whole point of the parity-locked
    tier ladder is that ``python``, ``vectorized`` and ``kernel`` produce
    the same result for the same spec — one cache entry serves them all.
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
    "d744490470b98553454f25361ee2e7b377109017d0024a3c2084e132e1cd4162": (
        RunSpec(protocol="mis", nodes=32, seed=5),
        RunSpec(protocol="mis", nodes=32, seed=5, shards=4),
    ),
    "24f933dacd0e0ba8f89181ffdfd56bbd590e911900f7c0b54694af3bc5ffa89f": (
        RunSpec(protocol="coloring", nodes=16, seed=3, graph="random_tree"),
    ),
    # Async specs shard too; the shard count canonicalizes away here as well.
    "3c557536d20ebd30284f49d32272577049201661aeab48ae58d4ed86feb0f45b": (
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
    "cca883c8f72906f4d0b063d59dc2c472adc5e1e9e32ee7b2d639370ec6770a51": (
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
    # Version 6: every engine draws from the one counter pick stream, so the
    # shard count canonicalizes away like the backend (version 5 made shards
    # legal for the async and dynamic environments; version 4 added the
    # dynamic environment's churn fields; version 3 canonicalized the
    # backend field to "auto").
    assert STORE_SCHEMA_VERSION == 6


@pytest.mark.parametrize("digest", sorted(GOLDEN_HASHES))
def test_golden_hashes(digest):
    for spec in GOLDEN_HASHES[digest]:
        assert spec_hash(spec) == digest


def test_golden_canonical_json():
    """The full canonical rendering of one spec, byte for byte."""
    assert canonical_spec_json(RunSpec(protocol="mis", nodes=32, seed=5)) == (
        '{"schema":6,"spec":{"adversary":null,"adversary_params":{},'
        '"adversary_seed":null,"backend":"auto","churn":null,'
        '"churn_params":{},"churn_seed":null,"environment":"sync",'
        '"graph":null,"graph_params":{},"graph_seed":null,"inputs":{},'
        '"max_events":5000000,"max_rounds":100000,"nodes":32,'
        '"protocol":"mis","protocol_params":{},"seed":5,"shards":null}}'
    )
