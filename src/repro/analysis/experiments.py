"""The reproduction experiments (E1–E14, and the ablations A1 and A2).

Each function reproduces one quantitative claim of the paper and returns an
:class:`~repro.analysis.reporting.ExperimentReport` whose rows are the series
the claim is about, plus a ``passed`` verdict for the *shape* of the result
(who wins, what the growth looks like, where the constants land).
``repro experiment <id>`` runs one and prints its report (``--quick`` picks
small workloads); the integration tests assert each verdict.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

from repro.analysis.reporting import ExperimentReport
from repro.analysis.statistics import best_growth_fit, doubling_ratios, mean, summarize
from repro.analysis.sweep import geometric_sizes
from repro.analysis.tournaments import trace_mis_execution
from repro.api import RunSpec, SeedPolicy, Simulation
from repro.automata.languages import SAMPLE_LANGUAGES
from repro.automata.lba_to_nfsm import decide_word_on_path
from repro.automata.nfsm_to_lba import LinearSpaceNetworkSimulator
from repro.baselines.beeping import sop_selection_mis
from repro.baselines.luby import luby_mis
from repro.compilers import compile_to_asynchronous, lower_to_single_query
from repro.core.alphabet import EPSILON, Observation
from repro.core.protocol import ExtendedProtocol, TransitionChoice
from repro.graphs import generators
from repro.graphs.properties import good_nodes_tree
from repro.protocols.broadcast import BroadcastProtocol
from repro.protocols.coloring import TreeColoringProtocol, coloring_from_result
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.scheduling.adversary import default_adversary_suite
from repro.verification.checkers import (
    is_maximal_independent_set,
    is_proper_coloring,
)

# Graph families used by the scaling experiments: named subsets of the
# registered families, so the spec-driven sweeps below and any ad-hoc use of
# these mappings generate identical graphs for identical seeds.
MIS_FAMILIES = {
    name: generators.GRAPH_FAMILIES[name]
    for name in ("random_tree", "gnp_sparse", "cycle", "grid")
}

TREE_FAMILIES = {
    name: generators.GRAPH_FAMILIES[name]
    for name in ("random_tree", "path", "star", "binary_tree")
}


def _mis_validator(graph, result) -> bool:
    return is_maximal_independent_set(graph, mis_from_result(result))


def _coloring_validator(graph, result) -> bool:
    colors = coloring_from_result(result)
    return is_proper_coloring(graph, colors) and len(set(colors.values())) <= 3


# ---------------------------------------------------------------------- #
# E1 — Theorem 4.5: MIS in O(log² n) rounds                               #
# ---------------------------------------------------------------------- #
def experiment_mis_scaling(
    sizes: Sequence[int] | None = None,
    repetitions: int = 3,
    base_seed: int = 1,
    backend: str = "auto",
    workers: int | None = None,
    store: "str | None" = None,
) -> ExperimentReport:
    """Measure MIS rounds against n and classify the growth (E1).

    The default ``backend="auto"`` routes the sweep through the vectorized
    batch engine, which is what makes sizes beyond a few thousand nodes
    practical; results are seed-for-seed identical to the interpreter.
    ``workers`` shards the sweep cells over a process pool — every record is
    bitwise-identical to serial execution (see :mod:`repro.api.executor`).
    ``store`` attaches a persistent result store: a rerun of the same
    workload replays every cell from the store with zero engine executions.
    """
    sizes = list(sizes) if sizes is not None else geometric_sizes(16, 1024)
    sweep = Simulation(store=store).sweep(
        RunSpec(protocol="mis", seed=base_seed, backend=backend),
        families=MIS_FAMILIES,
        sizes=sizes,
        repetitions=repetitions,
        validator=_mis_validator,
        workers=workers,
    )
    report = ExperimentReport(
        experiment_id="E1",
        title="Stone Age MIS scaling (Theorem 4.5)",
        paper_claim="run-time O(log^2 n) rounds on arbitrary graphs, always a correct MIS",
        headers=["n", "mean rounds", "rounds/log2(n)", "rounds/log2^2(n)"],
    )
    by_size = sweep.mean_cost_by_size()
    for size in sorted(by_size):
        rounds = by_size[size]
        log_n = math.log2(max(size, 2))
        report.add_row(size, rounds, rounds / log_n, rounds / (log_n**2))
    fit = best_growth_fit(list(by_size.keys()), list(by_size.values()))
    ratios = doubling_ratios(list(by_size.keys()), list(by_size.values()))
    report.conclusion = (
        f"best growth fit: {fit.label} (R^2={fit.r_squared:.3f}); "
        f"doubling ratios {['%.2f' % r for r in ratios]}; all runs valid: {sweep.all_valid()}"
    )
    # Shape verdict: every run produced a correct MIS and the growth is
    # clearly sub-linear — doubling n multiplies the round count by far less
    # than 2 (polylog growth pushes the ratio towards 1).
    sublinear = bool(ratios) and ratios[-1] < 1.6 and fit.label != "n"
    report.passed = sweep.all_valid() and sublinear
    return report


# ---------------------------------------------------------------------- #
# E2 — Theorem 5.4: tree 3-coloring in O(log n) rounds                    #
# ---------------------------------------------------------------------- #
def experiment_coloring_scaling(
    sizes: Sequence[int] | None = None,
    repetitions: int = 3,
    base_seed: int = 2,
    backend: str = "auto",
    workers: int | None = None,
    store: "str | None" = None,
) -> ExperimentReport:
    """Measure tree-coloring rounds against n and classify the growth (E2).

    ``store`` attaches a persistent result store (see E1).
    """
    sizes = list(sizes) if sizes is not None else geometric_sizes(16, 2048)
    sweep = Simulation(store=store).sweep(
        RunSpec(protocol="coloring", seed=base_seed, backend=backend),
        families=TREE_FAMILIES,
        sizes=sizes,
        repetitions=repetitions,
        validator=_coloring_validator,
        workers=workers,
    )
    report = ExperimentReport(
        experiment_id="E2",
        title="Stone Age tree 3-coloring scaling (Theorem 5.4)",
        paper_claim="run-time O(log n) rounds on undirected trees, always a proper 3-coloring",
        headers=["n", "mean rounds", "rounds/log2(n)"],
    )
    by_size = sweep.mean_cost_by_size()
    for size in sorted(by_size):
        rounds = by_size[size]
        report.add_row(size, rounds, rounds / math.log2(max(size, 2)))
    fit = best_growth_fit(list(by_size.keys()), list(by_size.values()))
    report.conclusion = (
        f"best growth fit: {fit.label} (R^2={fit.r_squared:.3f}); all runs valid: {sweep.all_valid()}"
    )
    report.passed = sweep.all_valid() and fit.label in ("log n", "log^2 n")
    return report


# ---------------------------------------------------------------------- #
# E3 — Theorem 3.1: synchronizer has constant overhead                    #
# ---------------------------------------------------------------------- #
def _backend_note(result) -> str:
    """The selection-reason annotation of a synchronous run, for reports."""
    backend = result.metadata.get("backend")
    if backend is None:
        return "backend unreported"
    return f"{backend}/{result.metadata.get('backend_mode')}"


def _e3_gnp(n: int, seed: int | None = None):
    """The G(n, 0.4) family of the synchronizer-overhead experiment.

    Module-level (not a lambda) so pooled sweep cells can carry it across
    the process boundary.
    """
    return generators.gnp_random_graph(n, 0.4, seed)


#: Registry names of the default adversary suite, in suite order.
E3_ADVERSARIES = tuple(policy.name for policy in default_adversary_suite())


def experiment_synchronizer_overhead(
    sizes: Sequence[int] = (6, 9, 12),
    base_seed: int = 3,
    backend: str = "auto",
    workers: int | None = None,
    store: "str | None" = None,
) -> ExperimentReport:
    """Compare synchronous rounds against asynchronous time units (E3).

    The experiment is two sweeps per protocol through the session facade:
    one synchronous sweep for the base round counts and one asynchronous
    sweep over the full adversary suite.  The async seed rule
    (:meth:`repro.api.SeedPolicy.async_sweep_cell`) derives a cell's graph
    seed *without* the adversary, so both sweeps — and every adversary —
    execute on the identical graph and the per-row ratio is a true same-graph
    overhead.  ``workers`` shards the asynchronous cells over a process pool
    (results identical to serial).  The lockstep rows (adversary
    ``"(lockstep)"``) run the compiled protocol in the synchronous
    environment — the friendliest admissible schedule — so the
    constant-factor claim is also pinned without adversarial noise.
    """
    from repro.api.seeds import SeedPolicy

    report = ExperimentReport(
        experiment_id="E3",
        title="Synchronizer overhead (Theorem 3.1)",
        paper_claim="asynchronous simulation costs a constant multiplicative factor",
        headers=["protocol", "adversary", "n", "base rounds", "async time units", "ratio"],
    )
    sizes = list(sizes)
    adversaries = list(E3_ADVERSARIES)
    ratios = []
    backend_notes = set()
    # One session for the whole experiment: compiled tables (sync and async
    # flavours) stay warm across both protocols' sweeps and the lockstep legs.
    # With a store, the registry-family sweeps (path broadcast) are served
    # from it on reruns; the custom G(n, 0.4) cells are not spec-describable
    # and bypass the store by design.
    session = Simulation(store=store)
    policy = SeedPolicy(base_seed)
    compiled_mis = compile_to_asynchronous(MISProtocol())

    mis_families = {"gnp": _e3_gnp}
    mis_sync = session.sweep(
        RunSpec(protocol="mis", seed=base_seed, backend=backend),
        families=mis_families,
        sizes=sizes,
        repetitions=1,
    )
    mis_async = session.sweep(
        RunSpec(protocol="mis", environment="async", seed=base_seed, backend=backend),
        families=mis_families,
        sizes=sizes,
        adversaries=adversaries,
        repetitions=1,
        workers=workers,
    )
    broadcast_sync = session.sweep(
        RunSpec(protocol="broadcast", seed=base_seed, backend=backend),
        families=["path"],
        sizes=sizes,
        repetitions=1,
    )
    broadcast_async = session.sweep(
        RunSpec(
            protocol="broadcast", environment="async", seed=base_seed, backend=backend
        ),
        families=["path"],
        sizes=sizes,
        adversaries=adversaries,
        repetitions=1,
        workers=workers,
    )

    def base_rounds(sweep, family, size):
        for record in sweep.records:
            if record.family == family and record.size == size and record.reached_output:
                return record.cost
        return None

    for size in sizes:
        mis_base = base_rounds(mis_sync, "gnp", size)
        # Lockstep leg: the compiled protocol under the friendliest schedule
        # on the *same* graph the sweeps used (rebuilt from the cell seed),
        # exercising the lazy-tabulated synchronous vectorized path.
        graph = _e3_gnp(size, policy.sweep_cell("gnp", size, 0).graph_seed)
        lockstep = session.run_protocol(
            graph,
            compiled_mis,
            seed=policy.async_cell_seed("gnp", size, 0, "(lockstep)"),
            max_rounds=5_000_000,
            raise_on_timeout=False,
            backend=backend,
            cache_key="e3-mis-lockstep",
        )
        backend_notes.add(_backend_note(lockstep))
        if lockstep.reached_output and mis_base:
            ratio = lockstep.rounds / mis_base
            ratios.append(ratio)
            report.add_row(
                "mis", "(lockstep)", size, round(mis_base), lockstep.rounds,
                round(ratio, 1),
            )
        broadcast_base = base_rounds(broadcast_sync, "path", size)
        for adversary in adversaries:
            mis_rows = [
                record
                for record in mis_async.records
                if record.size == size
                and record.adversary == adversary
                and record.reached_output
            ]
            if mis_rows and mis_base:
                ratio = mis_rows[0].cost / mis_base
                ratios.append(ratio)
                report.add_row(
                    "mis", adversary, size, round(mis_base),
                    round(mis_rows[0].cost, 1), round(ratio, 1),
                )
            broadcast_rows = [
                record
                for record in broadcast_async.records
                if record.size == size
                and record.adversary == adversary
                and record.reached_output
            ]
            if broadcast_rows and broadcast_base:
                ratio = broadcast_rows[0].cost / broadcast_base
                report.add_row(
                    "broadcast", adversary, size, round(broadcast_base),
                    round(broadcast_rows[0].cost, 1), round(ratio, 1),
                )
    stats = summarize(ratios) if ratios else None
    if stats:
        report.conclusion = (
            f"MIS overhead ratio mean={stats.mean:.1f}, max={stats.maximum:.1f} "
            f"(constant in n, dominated by |Sigma|^2 pausing steps per round); "
            f"lockstep backends used: {', '.join(sorted(backend_notes))}"
        )
        # The overhead must not grow with n: compare smallest vs largest size.
        report.passed = stats.maximum < 50 * max(stats.minimum, 1.0)
    return report


# ---------------------------------------------------------------------- #
# E4 — Theorem 3.4: multi-letter queries cost a constant factor           #
# ---------------------------------------------------------------------- #
class _StretchedProtocol(ExtendedProtocol):
    """An extended protocol run on the single-query lowering's clock.

    Each base round takes ``|Σ|`` rounds: the first ``|Σ| - 1`` idle
    silently, the last applies the base transition to the full observation.
    The base protocol's decisions thus fall on the same rounds as its
    lowering's, and the round-keyed pick stream hands both the same coins:
    a faithful lowering reproduces this execution round for round.  E4
    measures the lowering against it; its ``rounds / |Σ|`` is the base
    round count of that execution.
    """

    def __init__(self, base: ExtendedProtocol) -> None:
        self._base = base
        super().__init__(
            name=f"{base.name}[stretched]",
            alphabet=base.alphabet,
            initial_letter=base.initial_letter,
            bounding=base.bounding,
            input_states=tuple((state, 0) for state in base.input_states),
        )

    def initial_state(self, input_value: Any = None) -> tuple:
        return (self._base.initial_state(input_value), 0)

    def is_output_state(self, state: tuple) -> bool:
        return self._base.is_output_state(state[0])

    def output_value(self, state: tuple) -> Any:
        return self._base.output_value(state[0])

    def options(self, state: tuple, observation: Observation) -> tuple[TransitionChoice, ...]:
        base_state, subround = state
        if subround < len(self.alphabet) - 1:
            return (TransitionChoice((base_state, subround + 1), EPSILON),)
        base_choices = self._base.validate_option_set(
            self._base.options(base_state, observation)
        )
        return tuple(
            TransitionChoice((choice.state, 0), choice.emit) for choice in base_choices
        )


def experiment_multiquery_overhead(
    sizes: Sequence[int] = (16, 32, 64),
    base_seed: int = 4,
    backend: str = "auto",
) -> ExperimentReport:
    """Compare extended-protocol rounds with single-query-compiled rounds (E4).

    ``backend`` selects the synchronous engine; the default ``"auto"``
    vectorizes both legs — the lowered protocol tabulates lazily (its eager
    closure of partial-observation states is thousands of states wide), so
    sizes past a few hundred nodes stay practical.

    The base leg runs on the lowering's clock (:class:`_StretchedProtocol`):
    picks are keyed by round, so only then do both legs draw the same coins
    and simulate the same base execution, whose round count is the
    stretched run's rounds over ``|Sigma|``.
    """
    report = ExperimentReport(
        experiment_id="E4",
        title="Multi-letter query lowering overhead (Theorem 3.4)",
        paper_claim="single-letter simulation multiplies the round count by |Sigma| (a constant)",
        headers=["n", "base rounds", "lowered rounds", "ratio", "|Sigma|"],
    )
    ratios = []
    backend_notes = set()
    session = Simulation()
    alphabet_size = len(MISProtocol().alphabet)
    for size in sizes:
        graph = generators.gnp_random_graph(size, min(6.0 / size, 0.5), seed=base_seed + size)
        lowered = lower_to_single_query(MISProtocol())
        base_result = session.run_protocol(
            graph, _StretchedProtocol(MISProtocol()), seed=base_seed, backend=backend,
            cache_key="e4-base",
        )
        lowered_result = session.run_protocol(
            graph, lowered, seed=base_seed, max_rounds=500_000,
            backend=backend, cache_key="e4-lowered",
        )
        backend_notes.add(_backend_note(base_result))
        backend_notes.add(_backend_note(lowered_result))
        if not (base_result.rounds and lowered_result.reached_output):
            continue
        base_rounds = base_result.rounds // alphabet_size
        ratio = lowered_result.rounds / base_rounds
        ratios.append(ratio)
        report.add_row(
            size, base_rounds, lowered_result.rounds, round(ratio, 2), alphabet_size
        )
    report.conclusion = (
        f"measured ratios {['%.2f' % r for r in ratios]} against the predicted "
        f"|Sigma| = {alphabet_size}; "
        f"sync backends used: {', '.join(sorted(backend_notes))}"
    )
    report.passed = bool(ratios) and all(abs(r - alphabet_size) < 0.5 for r in ratios)
    return report


# ---------------------------------------------------------------------- #
# E5 — Lemma 6.1: nFSM execution in linear space                          #
# ---------------------------------------------------------------------- #
def experiment_linear_space(
    sizes: Sequence[int] = (16, 64, 256),
    base_seed: int = 5,
) -> ExperimentReport:
    """Measure the extra tape cells of the linear-space simulation (E5)."""
    report = ExperimentReport(
        experiment_id="E5",
        title="nFSM simulation by a linear-space machine (Lemma 6.1)",
        paper_claim="O(1) additional tape cells per node and per adjacency entry",
        headers=["n", "m", "input cells", "extra cells", "extra per entry", "same result as engine"],
    )
    per_entry = []
    agreements = []
    session = Simulation()
    for size in sizes:
        graph = generators.gnp_random_graph(size, min(6.0 / size, 0.5), seed=base_seed + size)
        simulator = LinearSpaceNetworkSimulator(graph, MISProtocol(), seed=base_seed)
        result = simulator.run()
        reference = session.run_protocol(
            graph, MISProtocol(), seed=base_seed, backend="python"
        )
        space = simulator.space_report()
        agreement = reference.final_states == result.final_states
        agreements.append(agreement)
        per_entry.append(space.extra_cells_per_entry)
        report.add_row(
            size, graph.num_edges, space.input_cells, space.extra_cells,
            round(space.extra_cells_per_entry, 3), agreement,
        )
    report.conclusion = (
        f"extra cells per adjacency entry: max {max(per_entry):.2f} (constant, <= 2)"
    )
    report.passed = all(agreements) and max(per_entry) <= 2.0
    return report


# ---------------------------------------------------------------------- #
# E6 — Lemma 6.2: rLBA simulated by an nFSM on a path                     #
# ---------------------------------------------------------------------- #
def experiment_lba_on_path(
    word_lengths: Sequence[int] = (0, 1, 3, 5, 8),
    base_seed: int = 6,
) -> ExperimentReport:
    """Check verdict agreement between sequential LBAs and the path protocol (E6)."""
    import random as _random

    report = ExperimentReport(
        experiment_id="E6",
        title="rLBA simulation on a path network (Lemma 6.2)",
        paper_claim="an nFSM protocol on an n-node path decides the same language as the rLBA",
        headers=["language", "words tested", "agreements", "max rounds"],
    )
    rng = _random.Random(base_seed)
    all_agree = True
    for name, (factory, reference, alphabet) in SAMPLE_LANGUAGES.items():
        machine = factory()
        agreements = 0
        total = 0
        max_rounds_seen = 0
        for length in word_lengths:
            word = [rng.choice(alphabet) for _ in range(length)]
            verdict, result = decide_word_on_path(machine, word, seed=base_seed + length)
            total += 1
            max_rounds_seen = max(max_rounds_seen, result.rounds or 0)
            if verdict == reference(word):
                agreements += 1
        all_agree = all_agree and agreements == total
        report.add_row(name, total, agreements, max_rounds_seen)
    report.conclusion = "every sampled word decided identically by the path network"
    report.passed = all_agree
    return report


# ---------------------------------------------------------------------- #
# E7 — tournament structure (Figure 1 mechanics)                          #
# ---------------------------------------------------------------------- #
def experiment_tournaments(
    sizes: Sequence[int] = (32, 64),
    base_seed: int = 7,
) -> ExperimentReport:
    """Measure tournament lengths against the 2 + Geom(1/2) prediction (E7)."""
    report = ExperimentReport(
        experiment_id="E7",
        title="Tournament lengths (Section 4 mechanics)",
        paper_claim="tournament length (in turns) is distributed as 2 + Geom(1/2), mean 4",
        headers=["graph", "tournaments", "mean turns", "P[len=3]", "P[len=4]", "P[len>=5]"],
    )
    means = []
    for size in sizes:
        for family, factory in (("gnp", lambda n, s: generators.gnp_random_graph(n, 0.2, s)),
                                ("star", lambda n, s: generators.star_graph(n - 1))):
            graph = factory(size, base_seed + size)
            trace, _ = trace_mis_execution(graph, seed=base_seed + size)
            lengths = trace.tournament_lengths()
            if not lengths:
                continue
            stats = summarize(lengths)
            means.append(stats.mean)
            total = len(lengths)
            report.add_row(
                f"{family}-{size}", total, round(stats.mean, 2),
                round(sum(1 for v in lengths if v == 3) / total, 2),
                round(sum(1 for v in lengths if v == 4) / total, 2),
                round(sum(1 for v in lengths if v >= 5) / total, 2),
            )
    report.conclusion = f"mean tournament length across graphs: {mean(means):.2f} (prediction 4.0)"
    report.passed = bool(means) and 3.0 <= mean(means) <= 5.0
    return report


# ---------------------------------------------------------------------- #
# E8 — Lemma 4.3: per-tournament edge decay                               #
# ---------------------------------------------------------------------- #
def experiment_edge_decay(
    sizes: Sequence[int] = (64, 128),
    repetitions: int = 3,
    base_seed: int = 8,
) -> ExperimentReport:
    """Measure |E^{i+1}| / |E^i| across tournaments (E8)."""
    report = ExperimentReport(
        experiment_id="E8",
        title="Virtual-graph edge decay (Lemma 4.3)",
        paper_claim="E[|E^{i+1}|] < (35/36)|E^i| — a constant-factor decay per tournament",
        headers=["n", "runs", "mean decay factor", "max decay factor", "tournaments to empty"],
    )
    overall = []
    for size in sizes:
        factors = []
        rounds_to_empty = []
        for repetition in range(repetitions):
            graph = generators.gnp_random_graph(size, 4.0 / size, seed=base_seed + repetition)
            trace, _ = trace_mis_execution(graph, seed=base_seed + 10 * repetition + size)
            decay = trace.decay_factors()
            factors.extend(decay)
            rounds_to_empty.append(len(trace.edge_decay()))
        if not factors:
            continue
        overall.extend(factors)
        report.add_row(
            size, repetitions, round(mean(factors), 3), round(max(factors), 3),
            round(mean(rounds_to_empty), 1),
        )
    report.conclusion = (
        f"mean decay factor {mean(overall):.3f} (paper's expectation bound: 35/36 = 0.972)"
    )
    report.passed = bool(overall) and mean(overall) < 0.99
    return report


# ---------------------------------------------------------------------- #
# E9 — Observations 5.2 / 5.3: good nodes and active-node decay           #
# ---------------------------------------------------------------------- #
def experiment_coloring_decay(
    sizes: Sequence[int] = (64, 256),
    repetitions: int = 3,
    base_seed: int = 9,
) -> ExperimentReport:
    """Measure the good-node fraction and the per-phase active decay (E9)."""
    report = ExperimentReport(
        experiment_id="E9",
        title="Tree coloring progress (Observations 5.2/5.3)",
        paper_claim=">= 1/5 of tree nodes are good; active nodes decay by a constant factor per phase",
        headers=["n", "good fraction", "mean per-phase active decay", "phases"],
    )
    good_fractions = []
    decays_all = []
    for size in sizes:
        for repetition in range(repetitions):
            graph = generators.random_tree(size, seed=base_seed + repetition)
            good_fraction = len(good_nodes_tree(graph)) / graph.num_nodes
            good_fractions.append(good_fraction)

            active_per_phase: list[int] = []

            def observer(round_index: int, states, _active=active_per_phase) -> None:
                if round_index % 4 == 0:
                    _active.append(sum(1 for s in states if s.mode != "COLORED"))

            from repro.scheduling.sync_engine import SynchronousEngine

            engine = SynchronousEngine(
                graph, TreeColoringProtocol(), seed=base_seed + repetition, observer=observer
            )
            engine.run(max_rounds=50_000, raise_on_timeout=False)
            decays = [
                later / earlier
                for earlier, later in zip(active_per_phase, active_per_phase[1:])
                if earlier > 0
            ]
            if decays:
                decays_all.extend(decays)
                report.add_row(
                    size, round(good_fraction, 3), round(mean(decays), 3), len(active_per_phase)
                )
    report.conclusion = (
        f"good-node fraction min {min(good_fractions):.2f} (bound 0.2); "
        f"mean active decay {mean(decays_all):.3f}"
    )
    report.passed = min(good_fractions) >= 0.2 and mean(decays_all) < 1.0
    return report


# ---------------------------------------------------------------------- #
# E10 — comparison against stronger-model baselines                        #
# ---------------------------------------------------------------------- #
def experiment_baseline_comparison(
    sizes: Sequence[int] = (64, 256),
    base_seed: int = 10,
) -> ExperimentReport:
    """Rounds of the Stone Age MIS vs Luby (LOCAL) and the beeping MIS (E10)."""
    report = ExperimentReport(
        experiment_id="E10",
        title="MIS round complexity across models",
        paper_claim="the nFSM MIS pays a polylog factor over Luby but needs only O(1) state/messages",
        headers=["n", "stone-age rounds", "luby rounds", "beeping rounds", "all correct"],
    )
    orderings = []
    session = Simulation()
    for size in sizes:
        graph = generators.gnp_random_graph(size, 4.0 / size, seed=base_seed + size)
        stone = session.run_protocol(
            graph, MISProtocol(), seed=base_seed, backend="python"
        )
        stone_ok = is_maximal_independent_set(graph, mis_from_result(stone))
        luby_set, luby_result = luby_mis(graph, seed=base_seed)
        beep_set, beep_result = sop_selection_mis(graph, seed=base_seed)
        correct = stone_ok and is_maximal_independent_set(graph, luby_set) and is_maximal_independent_set(graph, beep_set)
        orderings.append(luby_result.rounds <= stone.rounds)
        report.add_row(size, stone.rounds, luby_result.rounds, beep_result.rounds, correct)
    report.conclusion = "Luby (stronger model) is fastest; the Stone Age MIS stays polylogarithmic"
    report.passed = all(orderings)
    return report


# ---------------------------------------------------------------------- #
# E11 — message/state budget comparison                                    #
# ---------------------------------------------------------------------- #
def experiment_message_budget(
    sizes: Sequence[int] = (64, 256, 1024),
    base_seed: int = 11,
) -> ExperimentReport:
    """Contrast per-message bits of the nFSM protocols with LOCAL baselines (E11)."""
    report = ExperimentReport(
        experiment_id="E11",
        title="Per-message information budget",
        paper_claim="nFSM letters are O(1) bits regardless of n; LOCAL messages grow with log n",
        headers=["n", "nFSM letter bits", "luby mean message bits"],
    )
    letter_bits = math.ceil(math.log2(len(MISProtocol().alphabet)))
    grows = []
    for size in sizes:
        graph = generators.gnp_random_graph(size, 4.0 / size, seed=base_seed + size)
        _, luby_result = luby_mis(graph, seed=base_seed)
        mean_bits = luby_result.total_message_bits / max(luby_result.total_messages, 1)
        grows.append(mean_bits)
        report.add_row(size, letter_bits, round(mean_bits, 1))
    report.conclusion = (
        f"nFSM letters stay at {letter_bits} bits; LOCAL baseline messages average "
        f"{grows[0]:.0f} -> {grows[-1]:.0f} bits as n grows"
    )
    report.passed = all(bits > letter_bits for bits in grows)
    return report


# ---------------------------------------------------------------------- #
# E12 — model requirements (M1)–(M4)                                       #
# ---------------------------------------------------------------------- #
def experiment_model_requirements() -> ExperimentReport:
    """Census of every shipped protocol: sizes must be network-independent (E12)."""
    report = ExperimentReport(
        experiment_id="E12",
        title="Model requirements (M1)-(M4)",
        paper_claim="states, alphabet and bounding parameter are universal constants",
        headers=["protocol", "states", "alphabet", "b"],
    )
    protocols = [
        BroadcastProtocol(),
        MISProtocol(),
        TreeColoringProtocol(),
        lower_to_single_query(MISProtocol()),
        compile_to_asynchronous(MISProtocol()),
        compile_to_asynchronous(BroadcastProtocol()),
    ]
    constant = True
    for protocol in protocols:
        census = protocol.census()
        constant = constant and census.is_constant_size()
        report.add_row(
            protocol.name,
            census.num_states if census.num_states is not None else "finite (lazy)",
            census.alphabet_size,
            census.bounding,
        )
    report.conclusion = "every protocol's description is independent of the graph handed to the engine"
    report.passed = constant
    return report


# ---------------------------------------------------------------------- #
# A1 — ablation: biasing the UP-state coin of the MIS protocol             #
# ---------------------------------------------------------------------- #
def experiment_coin_bias_ablation(
    sizes: Sequence[int] = (128,),
    repetitions: int = 3,
    base_seed: int = 21,
) -> ExperimentReport:
    """Measure how biasing the MIS coin away from 1:1 changes the run-time (A1).

    The paper fixes a fair coin in the UP states.  Climbing too eagerly
    (large climb weight) stretches every tournament; deciding too eagerly
    (large decide weight) makes ties — and hence wasted tournaments — more
    likely.  The ablation quantifies both effects and shows the fair coin is
    a sensible middle ground.
    """
    report = ExperimentReport(
        experiment_id="A1",
        title="Ablation: UP-state coin bias in the MIS protocol",
        paper_claim="the protocol uses a fair coin; the analysis needs Geom(1/2) tournaments",
        headers=["climb:decide", "n", "mean rounds", "mean tournament turns"],
    )
    weights = [(1, 3), (1, 1), (3, 1), (7, 1)]
    fair_rounds: dict[int, float] = {}
    biased_worst: dict[int, float] = {}
    for climb, decide in weights:
        for size in sizes:
            rounds = []
            turns = []
            for repetition in range(repetitions):
                graph = generators.gnp_random_graph(size, 4.0 / size, seed=base_seed + repetition)
                history: list[tuple] = []
                from repro.scheduling.sync_engine import SynchronousEngine

                engine = SynchronousEngine(
                    graph,
                    MISProtocol(climb_weight=climb, decide_weight=decide),
                    seed=base_seed + repetition,
                    observer=lambda _r, states, _h=history: _h.append(states),
                )
                result = engine.run(max_rounds=50_000, raise_on_timeout=False)
                if not result.reached_output:
                    continue
                rounds.append(result.rounds)
                from repro.analysis.tournaments import MISTrace

                trace = MISTrace(graph=graph, history=history)
                lengths = trace.tournament_lengths()
                if lengths:
                    turns.append(mean(lengths))
            if rounds:
                report.add_row(f"{climb}:{decide}", size, round(mean(rounds), 1), round(mean(turns), 2))
                if (climb, decide) == (1, 1):
                    fair_rounds[size] = mean(rounds)
                else:
                    biased_worst[size] = max(biased_worst.get(size, 0.0), mean(rounds))
    report.conclusion = "the fair coin is within a small factor of the best setting at every size"
    report.passed = all(
        fair_rounds.get(size, float("inf")) <= 1.5 * biased_worst.get(size, float("inf"))
        for size in fair_rounds
    )
    return report


# ---------------------------------------------------------------------- #
# A2 — ablation: adversary severity vs normalised run-time                 #
# ---------------------------------------------------------------------- #
def experiment_adversary_severity(
    slow_factors: Sequence[float] = (1.0, 4.0, 16.0, 64.0),
    size: int = 8,
    base_seed: int = 22,
    backend: str = "auto",
) -> ExperimentReport:
    """Check that the normalised run-time stays bounded as the adversary worsens (A2).

    The paper's run-time measure divides the elapsed time by the largest
    step-length / delay parameter the adversary used.  Making a subset of
    nodes k times slower therefore should not blow up the *normalised*
    run-time — this is precisely what makes the measure meaningful.
    ``backend`` selects the asynchronous engine; ``"auto"`` (the default)
    uses the vectorized backend, which keeps sizes of 1024+ nodes tractable.
    """
    from repro.scheduling.adversary import SkewedRatesAdversary

    report = ExperimentReport(
        experiment_id="A2",
        title="Ablation: adversary severity vs normalised run-time",
        paper_claim="run-time is measured in units of the largest adversarial parameter",
        headers=["slow factor", "elapsed time", "normalised time units"],
    )
    session = Simulation()
    compiled = compile_to_asynchronous(MISProtocol())
    graph = generators.gnp_random_graph(size, min(0.4, 6.0 / size), seed=base_seed)
    normalised = []
    for factor in slow_factors:
        result = session.run_protocol(
            graph,
            compiled,
            environment="async",
            seed=base_seed,
            adversary=SkewedRatesAdversary(slow_fraction=0.3, slow_factor=factor),
            adversary_seed=base_seed + 1,
            max_events=6_000_000,
            raise_on_timeout=False,
            backend=backend,
            cache_key="a2-mis-async",
        )
        if not result.reached_output:
            continue
        normalised.append(result.time_units)
        report.add_row(factor, round(result.elapsed_time, 1), round(result.time_units, 1))
    report.conclusion = (
        "elapsed time grows with the slow factor, the normalised measure does not"
    )
    report.passed = bool(normalised) and max(normalised) <= 5 * min(normalised)
    return report


# ---------------------------------------------------------------------- #
# E13 — dynamic environment: re-convergence after topology churn           #
# ---------------------------------------------------------------------- #
def _dynamic_metrics(graph, result) -> dict:
    """Per-record dynamic measurement, lifted from the run metadata."""
    reconv = list(result.metadata.get("reconvergence_rounds", ()))
    return {
        "initial_rounds": result.metadata.get("initial_rounds", result.rounds),
        "reconvergence_rounds": reconv,
        "mean_reconvergence": mean(reconv) if reconv else 0.0,
        "restart_counts": list(result.metadata.get("restart_counts", ())),
    }


E13_MIS_FAMILIES = (
    "gnp_sparse",
    "random_tree",
    "preferential_attachment",
    "random_geometric",
)


def experiment_dynamic_reconvergence(
    sizes: Sequence[int] | None = None,
    repetitions: int = 3,
    flips: int = 4,
    disturbances: int = 4,
    base_seed: int = 23,
    backend: str = "auto",
    workers: int | None = None,
    store: "str | None" = None,
) -> ExperimentReport:
    """Measure re-convergence after k-edge-flip churn (E13).

    The motivation the paper opens with — biological and ad-hoc networks
    whose topology is not fixed — predicts that a self-restarting nFSM
    protocol re-stabilises after a small disturbance much faster than it
    solves from scratch: the restart set is local to the flipped edges, so
    only a shrinking residual subgraph re-runs the protocol.  MIS runs
    under ``burst`` flip churn across four families; tree 3-coloring runs
    under forest-preserving ``remove`` churn (the phase-lockstep protocol
    restarts all non-output nodes, so its re-convergence is a from-scratch
    run on the surviving forest and stays in the same O(log n) regime).
    """
    sizes = list(sizes) if sizes is not None else [32, 64, 128]
    session = Simulation(store=store)
    mis_sweep = session.sweep(
        RunSpec(
            protocol="mis",
            seed=base_seed,
            backend=backend,
            environment="dynamic",
            churn="burst",
            churn_params={"flips": flips, "disturbances": disturbances},
        ),
        families=list(E13_MIS_FAMILIES),
        sizes=sizes,
        repetitions=repetitions,
        validator=_mis_validator,
        extra_metrics=_dynamic_metrics,
        workers=workers,
    )
    coloring_sweep = session.sweep(
        RunSpec(
            protocol="coloring",
            seed=base_seed + 1,
            backend=backend,
            environment="dynamic",
            churn="burst",
            churn_params={
                "flips": flips,
                "disturbances": disturbances,
                "mode": "remove",
            },
        ),
        families=["random_tree"],
        sizes=sizes,
        repetitions=repetitions,
        validator=_coloring_validator,
        extra_metrics=_dynamic_metrics,
        workers=workers,
    )
    report = ExperimentReport(
        experiment_id="E13",
        title="Dynamic environment: re-convergence after topology churn",
        paper_claim=(
            "self-stabilising restarts make re-convergence after k edge flips "
            "far cheaper than solving from scratch"
        ),
        headers=[
            "protocol/family",
            "n",
            "mean initial rounds",
            "mean re-conv rounds",
            "ratio",
        ],
    )
    mis_ratios = []
    for label, sweep in (("mis", mis_sweep), ("coloring", coloring_sweep)):
        for family in sweep.families():
            for size in sweep.sizes():
                cell = [
                    r
                    for r in sweep.records
                    if r.family == family and r.size == size
                ]
                if not cell:
                    continue
                initial = mean([r.extra["initial_rounds"] for r in cell])
                reconv = mean([r.extra["mean_reconvergence"] for r in cell])
                ratio = reconv / initial if initial else 0.0
                if label == "mis":
                    mis_ratios.append(ratio)
                report.add_row(
                    f"{label}/{family}",
                    size,
                    round(initial, 1),
                    round(reconv, 1),
                    round(ratio, 2),
                )
    all_valid = mis_sweep.all_valid() and coloring_sweep.all_valid()
    mis_note = (
        f"mean MIS re-convergence ratio {mean(mis_ratios):.2f}"
        if mis_ratios
        else "no MIS cells measured"
    )
    report.conclusion = (
        f"all runs valid (post-churn snapshot): {all_valid}; {mis_note}"
    )
    # Shape verdict: every post-churn solution verifies on its final
    # snapshot, and MIS re-convergence is cheaper than the initial
    # stabilisation on average (locality of the restart set).
    report.passed = (
        all_valid and bool(mis_ratios) and mean(mis_ratios) < 1.0
    )
    return report


# ---------------------------------------------------------------------- #
# E14 — emulator sparsification: G vs its (1+ε, β) emulator               #
# ---------------------------------------------------------------------- #
def experiment_emulator_comparison(
    sizes: Sequence[int] | None = None,
    repetitions: int = 3,
    epsilon: float = 0.5,
    beta: float = 2.0,
    base_seed: int = 29,
    backend: str = "auto",
    store: "str | None" = None,
) -> ExperimentReport:
    """Compare MIS on G against MIS on the (1+ε, β)-emulator of G (E14).

    The greedy emulator keeps an edge only when its endpoints are not
    already within the distance threshold ``t = ⌊(1+ε)+β⌋``, so distances
    stretch by at most that factor while the edge count drops sharply on
    dense inputs.  Running the identical seeded MIS spec on both shows the
    sparsified graph stays in the same polylog round regime — the emulator
    trades a bounded stretch for a much cheaper topology.
    """
    sizes = list(sizes) if sizes is not None else [32, 64, 128]
    families = ("gnp_dense", "random_geometric")
    session = Simulation(store=store)
    report = ExperimentReport(
        experiment_id="E14",
        title="Emulator sparsification: G vs its (1+eps, beta) emulator",
        paper_claim=(
            "a (1+eps, beta)-emulator preserves protocol behaviour within a "
            "bounded stretch at a fraction of the edges"
        ),
        headers=[
            "family",
            "n",
            "edges G",
            "edges H",
            "kept",
            "rounds G",
            "rounds H",
        ],
    )
    policy = SeedPolicy(base_seed)
    all_valid = True
    edge_fractions = []
    for family in families:
        for size in sizes:
            base_rounds = []
            emu_rounds = []
            edges = {"base": 0, "emulator": 0}
            for repetition in range(repetitions):
                seeds = policy.sweep_cell(family, size, repetition)
                base_spec = RunSpec(
                    protocol="mis",
                    graph=family,
                    nodes=size,
                    seed=seeds.run_seed,
                    graph_seed=seeds.graph_seed,
                    backend=backend,
                )
                emu_spec = base_spec.replace(
                    graph="emulator",
                    graph_params={
                        "base": family,
                        "epsilon": epsilon,
                        "beta": beta,
                    },
                )
                for kind, spec in (("base", base_spec), ("emulator", emu_spec)):
                    graph = spec.build_graph()
                    result = session.simulate(
                        spec, graph=graph, raise_on_timeout=False
                    )
                    valid = result.reached_output and _mis_validator(
                        graph, result
                    )
                    all_valid = all_valid and valid
                    edges[kind] += graph.num_edges
                    (base_rounds if kind == "base" else emu_rounds).append(
                        result.rounds
                    )
            kept = edges["emulator"] / edges["base"] if edges["base"] else 1.0
            edge_fractions.append(kept)
            report.add_row(
                family,
                size,
                edges["base"] // repetitions,
                edges["emulator"] // repetitions,
                f"{kept:.0%}",
                round(mean(base_rounds), 1),
                round(mean(emu_rounds), 1),
            )
    report.conclusion = (
        f"all runs valid: {all_valid}; emulator keeps "
        f"{mean(edge_fractions):.0%} of the edges on average"
    )
    # Shape verdict: both executions always produce a correct MIS and the
    # emulator actually sparsifies (strictly fewer edges on average).
    report.passed = all_valid and mean(edge_fractions) < 1.0
    return report


ALL_EXPERIMENTS = {
    "E1": experiment_mis_scaling,
    "E2": experiment_coloring_scaling,
    "E3": experiment_synchronizer_overhead,
    "E4": experiment_multiquery_overhead,
    "E5": experiment_linear_space,
    "E6": experiment_lba_on_path,
    "E7": experiment_tournaments,
    "E8": experiment_edge_decay,
    "E9": experiment_coloring_decay,
    "E10": experiment_baseline_comparison,
    "E11": experiment_message_budget,
    "E12": experiment_model_requirements,
    "E13": experiment_dynamic_reconvergence,
    "E14": experiment_emulator_comparison,
    "A1": experiment_coin_bias_ablation,
    "A2": experiment_adversary_severity,
}
"""Experiment id → callable returning an :class:`ExperimentReport`."""
