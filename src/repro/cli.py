"""Command-line interface: run protocols, simulations and experiments.

The CLI gives quick access to the library without writing Python.  Every
registered protocol / graph family / adversary is reachable through the
generic ``run`` command, which builds a :class:`repro.api.RunSpec` from its
flags and executes it through a :class:`repro.api.Simulation` session::

    python -m repro run mis --family gnp_sparse --nodes 128 --seed 7
    python -m repro run mis --nodes 12 --asynchronous --adversary skewed-rates
    python -m repro run coloring --nodes 256 --family random_tree
    python -m repro run broadcast --input source=3
    python -m repro run luby --nodes 64           # LOCAL-model baseline
    python -m repro run mis --repetitions 8 --workers 4   # pooled repeats
    python -m repro run --list                    # registry census
    python -m repro run --list-backends           # backend tier ladder
    python -m repro run mis --backend kernel      # compiled-kernel tier
    python -m repro run --spec workload.json      # serialized RunSpec
    python -m repro run mis -r 6 --store cache/   # content-addressed results
    python -m repro experiment E1 --quick --workers 4
    python -m repro census
    python -m repro serve --store cache/          # spec job service (HTTP)
    python -m repro store stats cache/
    python -m repro store gc cache/ --max-entries 1000

``--store DIR`` attaches a persistent content-addressable result store:
seeded runs whose canonical spec hash is already in DIR are served without
executing the engines, byte-identical to the original run; fresh results
are persisted for the next invocation.  ``serve`` exposes the same store
as an HTTP job service (POST a RunSpec JSON to ``/jobs``), and ``store
stats`` / ``store gc`` inspect and bound the cache directory.

``--repetitions R`` runs the spec R times with derived seeds and reports the
aggregate; ``--workers N`` dispatches those repetitions (and the sweeps of
experiments E1–E3) to a multiprocess worker pool — results are identical to
serial execution for every seed (see repro.api.executor).  The
``REPRO_WORKERS`` environment variable supplies a default worker count.

The historical per-problem commands (``mis``, ``color``, ``matching``,
``broadcast``) remain as aliases of ``run`` with the protocol preselected.
Every command prints a short human-readable report (or ``--json``) and exits
with a non-zero status if the produced solution fails verification, so the
CLI can be used in scripts and CI pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from typing import Any

from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.api import (
    ADVERSARIES,
    CHURN_POLICIES,
    GRAPH_FAMILIES,
    PROTOCOLS,
    RunSpec,
    Simulation,
)
from repro.automata.languages import SAMPLE_LANGUAGES
from repro.automata.lba_to_nfsm import decide_word_on_path
from repro.core.errors import SpecError, StoneAgeError

#: Experiment workloads used with ``--quick`` (id -> keyword arguments).
_QUICK_EXPERIMENT_ARGS = {
    "E1": {"sizes": [16, 32, 64, 128], "repetitions": 2},
    "E2": {"sizes": [16, 32, 64, 128], "repetitions": 2},
    "E3": {"sizes": (6, 9)},
    "E4": {"sizes": (16, 32)},
    "E5": {"sizes": (16, 64)},
    "E6": {"word_lengths": (0, 2, 4)},
    "E7": {"sizes": (32,)},
    "E8": {"sizes": (64,), "repetitions": 2},
    "E9": {"sizes": (64,), "repetitions": 2},
    "E10": {"sizes": (64,)},
    "E11": {"sizes": (64, 256)},
    "E12": {},
    "E13": {"sizes": (24, 48), "repetitions": 2},
    "E14": {"sizes": (24, 48), "repetitions": 2},
    "A1": {"sizes": (48,), "repetitions": 2},
    "A2": {"slow_factors": (1.0, 8.0), "size": 7},
}


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
        return
    for key, value in payload.items():
        print(f"{key:>22}: {value}")


def _backend_fields(result) -> dict:
    """Backend-selection annotations of *result*, for the report payload.

    Every engine records which backend actually ran and why in
    ``ExecutionResult.metadata`` (an ``"auto"`` fallback to the interpreter
    is reported, never silent); surface both so scripted callers can assert
    on them via ``--json``.
    """
    backend = result.metadata.get("backend")
    if backend is None:
        return {}
    mode = result.metadata.get("backend_mode")
    if mode is None or mode == "interpreted":
        label = backend
    elif mode == "sharded":
        label = f"{backend} (sharded)"
    else:
        label = f"{backend} ({mode} table)"
    fields = {"backend": label}
    reason = result.metadata.get("backend_reason")
    if reason:
        fields["backend reason"] = reason
    shard_count = result.metadata.get("shard_count")
    if shard_count is not None:
        if "halo_bytes_per_bucket" in result.metadata:
            halo = f"halo={result.metadata.get('halo_bytes_per_bucket')} B/bucket"
        else:
            halo = f"halo={result.metadata.get('halo_bytes_per_round')} B/round"
        fields["shards"] = (
            f"{shard_count} ({result.metadata.get('partition_strategy')} "
            f"partition, cut={result.metadata.get('cut_edges')}, {halo})"
        )
    return fields


# ---------------------------------------------------------------------- #
# The generic registry-driven ``run`` command                             #
# ---------------------------------------------------------------------- #
def _parse_value(text: str) -> Any:
    """Best-effort typed parse of a ``key=value`` right-hand side."""
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def _parse_params(pairs: Sequence[str] | None, option: str) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs or ():
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise SpecError(f"{option} expects key=value, got {pair!r}")
        params[key] = _parse_value(value)
    return params


def _registry_census() -> dict[str, Any]:
    return {
        "protocols": {
            name: entry.title for name, entry in PROTOCOLS.items()
        },
        "graph_families": GRAPH_FAMILIES.names(),
        "adversaries": ADVERSARIES.names(),
        "churn_policies": CHURN_POLICIES.names(),
    }


def _print_registry_list(as_json: bool) -> int:
    census = _registry_census()
    if as_json:
        print(json.dumps(census, indent=2))
        return 0
    print("protocols:")
    for name, title in census["protocols"].items():
        print(f"  {name:<14} {title}")
    print("graph families:")
    for name in census["graph_families"]:
        print(f"  {name}")
    print("adversaries:")
    for name in census["adversaries"]:
        print(f"  {name}")
    print("churn policies:")
    for name in census["churn_policies"]:
        print(f"  {name}")
    return 0


def _print_backend_list(as_json: bool) -> int:
    """``run --list-backends``: the capability census of the tier ladder."""
    from repro.api.backends import backend_census

    census = backend_census()
    if as_json:
        print(json.dumps(census, indent=2))
        return 0
    print("backends (rank = auto-selection preference, highest available wins):")
    for row in census:
        status = "available" if row["available"] else "UNAVAILABLE"
        print(f"  [{row['rank']}] {row['name']:<11} {status:<12} {row['detail']}")
        print(f"      {row['description']}")
        print(
            f"      environments={','.join(row['environments'])} "
            f"tables={','.join(row['tabulation_modes'])} "
            f"sharding={'yes' if row['supports_sharding'] else 'no'}"
        )
    return 0


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    """Build the :class:`RunSpec` described by the CLI flags."""
    if args.spec is not None:
        try:
            with open(args.spec, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise SpecError(f"cannot read spec file: {error}") from error
        except json.JSONDecodeError as error:
            raise SpecError(f"{args.spec} is not valid JSON: {error}") from error
        return RunSpec.from_dict(payload)
    protocol = args.protocol
    entry = PROTOCOLS.get(protocol)
    asynchronous = bool(getattr(args, "asynchronous", False))
    churn = getattr(args, "churn", None)
    if asynchronous and churn is not None:
        raise SpecError("--churn selects the dynamic environment and cannot "
                        "be combined with --asynchronous")
    if churn is not None:
        environment = "dynamic"
    elif asynchronous:
        environment = "async"
    else:
        environment = "sync"
    inputs = _parse_params(getattr(args, "input", None), "--input")
    if getattr(args, "source", None) is not None:
        inputs.setdefault("source", args.source)
    return RunSpec(
        protocol=protocol,
        nodes=args.nodes,
        graph=args.family if args.family is not None else entry.default_family,
        environment=environment,
        backend=args.backend,
        seed=args.seed,
        adversary=getattr(args, "adversary", None) if asynchronous else None,
        adversary_seed=(args.seed + 1) if asynchronous else None,
        churn=churn,
        churn_seed=getattr(args, "churn_seed", None),
        churn_params=_parse_params(getattr(args, "churn_param", None), "--churn-param"),
        protocol_params=_parse_params(getattr(args, "param", None), "--param"),
        inputs=inputs,
        max_rounds=args.max_rounds,
        max_events=getattr(args, "max_events", 5_000_000),
        shards=getattr(args, "shards", None),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if getattr(args, "list", False):
        return _print_registry_list(args.json)
    if getattr(args, "list_backends", False):
        return _print_backend_list(args.json)
    if args.protocol is None and args.spec is None:
        print("error: name a protocol, pass --spec, or use --list", file=sys.stderr)
        return 2
    repetitions = getattr(args, "repetitions", 1) or 1
    workers = getattr(args, "workers", None)
    try:
        spec = _spec_from_args(args)
        entry = PROTOCOLS.get(spec.protocol)
        if entry.runner is not None and spec.environment != "sync":
            raise SpecError(
                f"protocol {spec.protocol!r} runs through a custom runner and "
                f"only supports the synchronous environment"
            )
        if repetitions > 1 and entry.runner is not None:
            raise SpecError(
                f"protocol {spec.protocol!r} runs through a custom runner and "
                f"does not support --repetitions"
            )
        if args.show_spec:
            print(json.dumps(spec.to_dict(), indent=2))
            return 0
        session = Simulation(store=getattr(args, "store", None))
        if repetitions > 1:
            return _run_repeated(session, spec, entry, repetitions, workers, args.json)
        graph = spec.build_graph()
    except StoneAgeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _MODES = {"async": "asynchronous", "dynamic": "dynamic"}
    payload: dict[str, Any] = {
        "problem": entry.title,
        "graph": f"{spec.family} n={graph.num_nodes} m={graph.num_edges}",
        "mode": _MODES.get(spec.environment, "synchronous"),
    }
    if spec.environment == "async" and spec.adversary is not None:
        payload["adversary"] = spec.adversary
    if spec.environment == "dynamic":
        payload["churn"] = spec.churn
    try:
        if entry.runner is not None:
            fields, valid, result = entry.runner(session, spec, graph)
            payload.update(fields)
            if result is not None:
                payload.update(_backend_fields(result))
        else:
            result = session.simulate(spec, graph=graph, raise_on_timeout=False)
            payload["cost"] = (
                f"{result.cost:.1f} "
                + ("time units" if spec.environment == "async" else "rounds")
            )
            # Dynamic runs end on the final churn snapshot: summarise,
            # validate and report against it, not the generated base graph.
            check_graph = result.graph if spec.environment == "dynamic" else graph
            if spec.environment == "dynamic":
                payload["disturbances"] = result.metadata.get("disturbances")
                payload["reconvergence rounds"] = result.metadata.get(
                    "reconvergence_rounds"
                )
            if entry.summary is not None:
                payload.update(entry.summary(check_graph, result))
            payload.update(_backend_fields(result))
            valid = result.reached_output and (
                entry.validator is None or entry.validator(check_graph, result)
            )
    except StoneAgeError as error:
        # Strict backend requests the host cannot honour (e.g. --backend
        # kernel without numba) fail loudly but cleanly.
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload["valid"] = valid
    _emit(payload, args.json)
    return 0 if valid else 1


def _run_repeated(
    session: Simulation,
    spec: Any,
    entry: Any,
    repetitions: int,
    workers: int | None,
    as_json: bool,
) -> int:
    """Execute ``--repetitions R`` derived-seed runs (optionally pooled).

    The aggregate report includes the session's cache accounting — compiled
    table hits/misses and, when ``--store`` attached a result store, its
    hit/miss/bypass/write counters — so scripted callers can assert cold
    and warm behaviour straight off ``--json`` output.
    """
    results = session.repeat(
        spec, repetitions, raise_on_timeout=False, workers=workers
    )
    graph = spec.build_graph()
    costs = [result.cost for result in results if result.reached_output]
    all_valid = all(
        result.reached_output
        and (entry.validator is None or entry.validator(graph, result))
        for result in results
    )
    payload: dict[str, Any] = {
        "problem": entry.title,
        "graph": f"{spec.family} n={graph.num_nodes} m={graph.num_edges}",
        "mode": "asynchronous" if spec.environment == "async" else "synchronous",
        "repetitions": repetitions,
        "workers": workers if workers is not None else "(serial or $REPRO_WORKERS)",
        "seeds": [result.seed for result in results],
        "mean cost": round(sum(costs) / len(costs), 2) if costs else None,
        "reached output": sum(1 for result in results if result.reached_output),
    }
    payload.update(_backend_fields(results[0]))
    info = session.cache_info()
    if as_json:
        payload["cache"] = info
    else:
        payload["table cache"] = f"{info['hits']} hits / {info['misses']} misses"
        store_info = info.get("store")
        if store_info is not None:
            payload["result store"] = (
                f"{store_info['hits']} hits / {store_info['misses']} misses / "
                f"{store_info['bypasses']} bypasses "
                f"({store_info['writes']} writes, "
                f"{store_info['entries']} entries)"
            )
    payload["valid"] = all_valid
    _emit(payload, as_json)
    return 0 if all_valid else 1


# ---------------------------------------------------------------------- #
# Non-registry commands                                                   #
# ---------------------------------------------------------------------- #
def _cmd_lba(args: argparse.Namespace) -> int:
    factory, reference, alphabet = SAMPLE_LANGUAGES[args.language]
    machine = factory()
    word = list(args.word)
    unknown = [symbol for symbol in word if symbol not in alphabet]
    if unknown:
        print(f"error: symbols {unknown!r} are not in the alphabet {alphabet!r} "
              f"of language {args.language!r}", file=sys.stderr)
        return 2
    verdict, result = decide_word_on_path(machine, word, seed=args.seed)
    expected = reference(word)
    _emit(
        {
            "language": args.language,
            "word": args.word or "(empty)",
            "path cells": result.graph.num_nodes,
            "network rounds": result.rounds,
            "network verdict": verdict,
            "reference verdict": expected,
            "agrees": verdict == expected,
        },
        args.json,
    )
    return 0 if verdict == expected else 1


#: Experiments whose harness accepts a ``workers=`` pool size (E1–E3 sweep
#: through the session facade; the remaining experiments are trace-driven).
_WORKERS_AWARE_EXPERIMENTS = frozenset({"E1", "E2", "E3"})


def _cmd_experiment(args: argparse.Namespace) -> int:
    identifiers = list(ALL_EXPERIMENTS) if args.id == "all" else [args.id]
    all_passed = True
    for identifier in identifiers:
        runner = ALL_EXPERIMENTS[identifier]
        kwargs = dict(_QUICK_EXPERIMENT_ARGS.get(identifier, {})) if args.quick else {}
        if args.workers is not None and identifier in _WORKERS_AWARE_EXPERIMENTS:
            kwargs["workers"] = args.workers
        if (
            getattr(args, "store", None) is not None
            and identifier in _WORKERS_AWARE_EXPERIMENTS
        ):
            kwargs["store"] = args.store
        report = runner(**kwargs)
        print(report.render())
        print()
        all_passed = all_passed and bool(report.passed)
    return 0 if all_passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover — interactive
    from repro.api.service import serve

    serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        ledger_dir=args.ledger_dir,
        max_finished_jobs=args.max_jobs,
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.api.store import STORE_SCHEMA_VERSION, ResultStore

    store = ResultStore(args.store)
    if args.action == "stats":
        paths = store._entry_paths()
        size = 0
        for path in paths:
            try:
                size += path.stat().st_size
            except OSError:
                continue
        _emit(
            {
                "root": str(store.root),
                "schema": STORE_SCHEMA_VERSION,
                "entries": len(paths),
                "bytes": size,
            },
            args.json,
        )
        return 0
    removed = store.gc(
        max_entries=args.max_entries,
        max_age_seconds=(
            args.max_age_days * 86_400.0 if args.max_age_days is not None else None
        ),
    )
    _emit(
        {
            "root": str(store.root),
            "evicted": removed,
            "entries": store.entry_count(),
        },
        args.json,
    )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import experiment_model_requirements

    report = experiment_model_requirements()
    print(report.render())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------- #
# Argument parsing                                                        #
# ---------------------------------------------------------------------- #
def _add_run_arguments(
    parser: argparse.ArgumentParser,
    *,
    default_family: str | None = None,
    asynchronous_flags: bool = True,
) -> None:
    parser.add_argument("--family", choices=sorted(GRAPH_FAMILIES.names()),
                        default=default_family,
                        help="graph family to generate (default: the protocol's own)")
    parser.add_argument("--nodes", "-n", type=int, default=64, help="number of nodes")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--max-rounds", type=int, default=100_000)
    parser.add_argument("--backend",
                        choices=("python", "vectorized", "kernel", "auto"),
                        default="auto",
                        help="execution backend (synchronous and asynchronous "
                             "runs alike): the interpreted reference engine, "
                             "the vectorized NumPy engine, the compiled "
                             "kernel tier (requires numba), or automatic "
                             "selection (default: %(default)s); all backends "
                             "give identical results for a seed "
                             "(see `run --list-backends`)")
    parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="protocol constructor parameter (repeatable)")
    parser.add_argument("--input", action="append", metavar="KEY=VALUE",
                        help="protocol input parameter, e.g. source=3 (repeatable)")
    parser.add_argument("--repetitions", "-r", type=int, default=1,
                        help="run the spec this many times with derived seeds "
                             "and report the aggregate (default: 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="dispatch repeated runs to this many worker "
                             "processes; results are identical to serial "
                             "execution (default: $REPRO_WORKERS or serial)")
    parser.add_argument("--shards", type=int, default=None,
                        help="split each run across this many shared-memory "
                             "shard workers — sync rounds, async event "
                             "buckets and dynamic segments all shard "
                             "(identical results for any shard count; "
                             "composes with --workers "
                             "under a core budget; default: $REPRO_SHARDS "
                             "or off)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="attach a content-addressable result store: "
                             "seeded runs are served from DIR when their "
                             "spec hash is present and persisted after a "
                             "miss (see `repro store stats`)")
    parser.add_argument("--spec", metavar="FILE", default=None,
                        help="load the full RunSpec from a JSON file "
                             "(overrides the other workload flags)")
    parser.add_argument("--show-spec", action="store_true",
                        help="print the equivalent RunSpec JSON instead of running")
    parser.add_argument("--json", action="store_true", help="print machine-readable JSON")
    if asynchronous_flags:
        parser.add_argument("--asynchronous", action="store_true",
                            help="compile with the synchronizer and run under an adversary")
        parser.add_argument("--adversary", choices=sorted(ADVERSARIES.names()),
                            default="uniform")
        parser.add_argument("--max-events", type=int, default=5_000_000)
        parser.add_argument("--churn", choices=sorted(CHURN_POLICIES.names()),
                            default=None,
                            help="run in the dynamic environment under this "
                                 "churn policy: re-stabilise after each "
                                 "topology disturbance (see `run --list`)")
        parser.add_argument("--churn-seed", type=int, default=None,
                            help="explicit churn-schedule seed (default: "
                                 "derived deterministically from --seed)")
        parser.add_argument("--churn-param", action="append", metavar="KEY=VALUE",
                            help="churn-policy constructor parameter, e.g. "
                                 "flips=8 (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stone Age Distributed Computing — run nFSM protocols and experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run any registered protocol (see `run --list`)"
    )
    run.add_argument("protocol", nargs="?", default=None,
                     help="registered protocol name (see --list)")
    run.add_argument("--list", action="store_true",
                     help="list registered protocols, graph families, "
                          "adversaries and churn policies")
    run.add_argument("--list-backends", action="store_true",
                     help="list the backend tier ladder with availability "
                          "and capabilities, then exit")
    _add_run_arguments(run)
    run.set_defaults(handler=_cmd_run)

    # Historical per-problem commands: aliases of `run` with the protocol
    # preselected (and their historical default graph families).
    mis = subparsers.add_parser("mis", help="run the Stone Age MIS protocol")
    _add_run_arguments(mis, default_family="gnp_sparse")
    mis.set_defaults(handler=_cmd_run, protocol="mis", list=False)

    color = subparsers.add_parser("color", help="run the tree 3-coloring protocol")
    _add_run_arguments(color, default_family="random_tree", asynchronous_flags=False)
    color.set_defaults(handler=_cmd_run, protocol="coloring", list=False)

    matching = subparsers.add_parser("matching", help="maximal matching via the line graph")
    _add_run_arguments(matching, default_family="gnp_sparse", asynchronous_flags=False)
    matching.set_defaults(handler=_cmd_run, protocol="matching", list=False)

    broadcast = subparsers.add_parser("broadcast", help="single-source broadcast")
    _add_run_arguments(broadcast, default_family="random_tree", asynchronous_flags=False)
    broadcast.add_argument("--source", type=int, default=0)
    broadcast.set_defaults(handler=_cmd_run, protocol="broadcast", list=False)

    lba = subparsers.add_parser("lba", help="decide a word on a path of FSMs (Lemma 6.2)")
    lba.add_argument("--language", choices=sorted(SAMPLE_LANGUAGES), default="palindromes")
    lba.add_argument("--word", default="")
    lba.add_argument("--seed", type=int, default=0)
    lba.add_argument("--json", action="store_true")
    lba.set_defaults(handler=_cmd_lba)

    experiment = subparsers.add_parser("experiment", help="run a reproduction experiment (E1-E12)")
    experiment.add_argument("id", choices=sorted(ALL_EXPERIMENTS) + ["all"])
    experiment.add_argument("--quick", action="store_true",
                            help="use a small workload (seconds instead of minutes)")
    experiment.add_argument("--workers", type=int, default=None,
                            help="worker-pool size for the sweep-driven "
                                 "experiments (E1-E3); results are identical "
                                 "to serial execution")
    experiment.add_argument("--store", metavar="DIR", default=None,
                            help="result-store directory for the sweep-driven "
                                 "experiments (E1-E3): reruns replay cached "
                                 "cells without executing the engines")
    experiment.set_defaults(handler=_cmd_experiment)

    census = subparsers.add_parser("census", help="print the size census of every protocol")
    census.set_defaults(handler=_cmd_census)

    serve_cmd = subparsers.add_parser(
        "serve",
        help="serve spec jobs over HTTP in front of a result store",
    )
    serve_cmd.add_argument("--store", metavar="DIR", required=True,
                           help="result-store directory backing the service")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8008)
    serve_cmd.add_argument("--workers", type=int, default=None,
                           help="worker-pool size for batched job execution")
    serve_cmd.add_argument("--ledger-dir", metavar="DIR", default=None,
                           help="job-event JSONL directory "
                                "(default: <store>/ledger)")
    serve_cmd.add_argument("--max-jobs", type=int, default=256,
                           help="finished jobs kept in memory; older ones "
                                "are re-served from the store (default: 256)")
    serve_cmd.set_defaults(handler=_cmd_serve)

    store_cmd = subparsers.add_parser(
        "store", help="inspect or garbage-collect a result store"
    )
    store_sub = store_cmd.add_subparsers(dest="action", required=True)
    store_stats = store_sub.add_parser("stats", help="entry count and on-disk size")
    store_stats.add_argument("store", metavar="DIR")
    store_stats.add_argument("--json", action="store_true")
    store_stats.set_defaults(handler=_cmd_store)
    store_gc = store_sub.add_parser("gc", help="evict entries beyond the given bounds")
    store_gc.add_argument("store", metavar="DIR")
    store_gc.add_argument("--max-entries", type=int, default=None,
                          help="keep at most this many entries (newest win)")
    store_gc.add_argument("--max-age-days", type=float, default=None,
                          help="drop entries older than this many days")
    store_gc.add_argument("--json", action="store_true")
    store_gc.set_defaults(handler=_cmd_store)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
