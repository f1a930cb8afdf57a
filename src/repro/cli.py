"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Generate a synthetic workload and run it through the scheduler,
    printing the metrics summary (optionally the full event trace).
``compare``
    Run the same workload under every rollback strategy and print a
    side-by-side table.
``figures``
    Reproduce the paper's Figures 1–5 and print the measured artefacts
    next to the paper's statements.
``fuzz``
    Drive the verification fuzzer: randomized workloads × interleavings
    across every rollback strategy with the invariant oracles armed,
    reproducible from one seed (see ``docs/VERIFICATION.md``).
``chaos``
    Deterministic fault injection: scheduler/site crashes with WAL
    recovery, network faults, storage faults, stalls — either a seeded
    campaign or a crash-at-every-step recovery-equivalence sweep
    (see ``docs/RESILIENCE.md``).
``overload``
    Seeded open/closed-loop stress runs through the admission layer:
    MPL gating (fixed or AIMD) and per-transaction deadline ladders.
    Prints throughput, shed rate and p99 commit latency in steps, and a
    livelock diagnosis when the run stops without progress
    (see ``docs/RESILIENCE.md``).
``lint``
    The repo's own static analysis: determinism / lock-discipline /
    seeding / await rules (RR001, RR002, RR004, RR006) plus
    ``--predict``, which lifts each recorded regression trace (or
    ``--journal`` service journal) into abstract lock events with vector
    clocks and reports deadlocks reachable in *alternate* interleavings,
    cross-validated by engine replay (see ``docs/STATIC_ANALYSIS.md``).
``advise``
    Static workload risk analysis without executing anything: lock-order
    inversion structure over the generated (or journal-harvested)
    transaction templates, a per-template risk score, and a recommended
    multiprogramming level that ``overload --admission predictive``
    anchors its window at (see ``docs/STATIC_ANALYSIS.md``).
``trace``
    Record a named scenario (or a seeded synthetic run) with the
    observability bus attached and export the event stream as JSONL,
    Chrome ``trace_event`` JSON, or a human-readable summary;
    ``--smoke`` double-runs the scenario and gates on byte-identical
    exports (see ``docs/OBSERVABILITY.md``).
``top``
    The operator dashboard for a recorded scenario: hottest entities,
    longest-blocked transactions, rollback victims, and the state of the
    admission / deadline machinery as of a step.

``fuzz``, ``chaos``, ``overload``, ``lint``, ``advise --smoke`` and
``trace --smoke`` exit non-zero when anything fires, so CI can gate on
them directly.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis import (
    drive_figure1,
    drive_figure2,
    figure3a,
    figure3b,
    figure3c,
    figure4_transaction,
    figure4_transaction_without_ck,
    figure5_transaction,
    well_defined_states,
)
from .core.rollback import available_strategies
from .core.scheduler import Scheduler
from .core.victim import available_policies
from .graphs.render import concurrency_to_ascii
from .simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)

#: Derived from the registries, so a newly registered strategy or
#: policy shows up in ``--help`` without touching this module.
STRATEGIES = available_strategies()
POLICIES = available_policies()
POLICY_HELP = ("victim policy; min-cost (Figure 2) and requester (re-closes "
               "the same cycle) are not livelock-free")


def _int_at_least(minimum: int):
    """An argparse ``type`` for integers >= *minimum*, so a bad flag is a
    usage error (exit 2) before anything runs."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # "invalid int value" for a non-integer
    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type`` for finite floats > 0, so a bad flag is a
    usage error (exit 2) before anything runs."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}"
        )
    return value


_positive_float.__name__ = "float"  # "invalid float value" for a non-number


def _host_port(text: str) -> tuple[str, int]:
    """An argparse ``type`` for ``HOST:PORT`` (host defaults to
    127.0.0.1), so a malformed address is a usage error."""
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        ) from None


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--transactions", type=_int_at_least(1), default=10,
                        help="number of concurrent transactions")
    parser.add_argument("--entities", type=_int_at_least(1), default=10,
                        help="number of database entities")
    parser.add_argument("--locks", type=int, nargs=2, default=(2, 5),
                        metavar=("MIN", "MAX"),
                        help="locks per transaction (range)")
    parser.add_argument("--write-ratio", type=float, default=0.8,
                        help="probability a lock is exclusive")
    parser.add_argument("--skew", choices=("uniform", "zipf", "hotspot"),
                        default="hotspot", help="entity access skew")
    parser.add_argument("--scattered", action="store_true",
                        help="scatter writes across lock states (§5)")
    parser.add_argument("--three-phase", action="store_true",
                        help="generate acquire/update/release programs")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload + interleaving seed")


def _config_from_args(args) -> WorkloadConfig:
    """The workload :func:`_add_workload_args`' flags describe."""
    return WorkloadConfig(
        n_transactions=args.transactions,
        n_entities=args.entities,
        locks_per_txn=tuple(args.locks),
        write_ratio=args.write_ratio,
        skew=args.skew,
        clustered_writes=not args.scattered,
        three_phase=args.three_phase,
    )


def _build(args) -> tuple:
    db, programs = generate_workload(_config_from_args(args), seed=args.seed)
    return db, programs, expected_final_state(db, programs)


def _run_once(args, strategy: str, policy: str):
    db, programs, expected = _build(args)
    scheduler = Scheduler(db, strategy=strategy, policy=policy)
    engine = SimulationEngine(
        scheduler, RandomInterleaving(seed=args.seed + 1),
        max_steps=2_000_000, livelock_window=50_000,
    )
    for program in programs:
        engine.add(program)
    result = engine.run()
    serializable = (
        not result.livelock_detected and result.final_state == expected
    )
    return result, serializable


def cmd_run(args) -> int:
    result, serializable = _run_once(args, args.strategy, args.policy)
    if args.trace:
        print(result.trace.render())
        print()
    for key, value in result.metrics.summary().items():
        print(f"{key:>20}: {value}")
    print(f"{'steps':>20}: {result.steps}")
    print(f"{'mean blocked':>20}: {result.mean_blocked:.2f}")
    print(f"{'livelock':>20}: {result.livelock_detected}")
    print(f"{'serializable':>20}: {serializable}")
    return 0 if serializable else 1


def cmd_compare(args) -> int:
    print(f"{'strategy':<14}{'deadlocks':>10}{'rollbacks':>10}"
          f"{'restarts':>10}{'lost':>8}{'copies':>8}{'steps':>8}")
    ok = True
    for strategy in STRATEGIES:
        result, serializable = _run_once(args, strategy, args.policy)
        ok = ok and serializable
        m = result.metrics
        print(f"{strategy:<14}{m.deadlocks:>10}{m.rollbacks:>10}"
              f"{m.total_rollbacks:>10}{m.states_lost:>8}"
              f"{m.copies_peak:>8}{result.steps:>8}")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    from .simulation import Sweep, tabulate
    from .verification.harness import is_ordered_policy

    sweep = Sweep(base=_config_from_args(args), seeds=range(args.seeds))
    if args.axis == "strategy":
        cells = sweep.over_strategies(list(STRATEGIES), policy=args.policy)
    elif args.axis == "policy":
        cells = sweep.over_policies(list(POLICIES))
    else:
        cells = sweep.over_concurrency(
            [args.transactions // 2, args.transactions,
             args.transactions * 2],
            policy=args.policy,
        )
    print(tabulate(
        cells,
        metrics=("deadlocks", "rollbacks", "total_rollbacks",
                 "states_lost", "overshoot_states", "copies_peak"),
    ))
    policies = (
        list(POLICIES) if args.axis == "policy" else [args.policy] * len(cells)
    )
    # Theorem 2: an ordered policy never livelocks, so a livelock under
    # one is a failure; an unordered cell only reports its count.
    livelocked = [
        cell.label
        for cell, policy in zip(cells, policies)
        if cell.livelocks and is_ordered_policy(policy)
    ]
    for label in livelocked:
        print(f"livelock under an ordered policy in cell {label}")
    ok = all(c.serializable for c in cells) and not livelocked
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    from .verification import (
        COPY_STRATEGIES,
        FuzzConfig,
        describe_failure,
        fuzz_campaign,
        oracle_names,
        save_case,
    )

    from .core.rollback import make_strategy
    from .verification import make_oracles, resolve_policy
    from .verification.fuzzer import apply_profile

    strategies = tuple(
        s.strip() for s in args.strategies.split(",") if s.strip()
    ) or COPY_STRATEGIES
    try:
        make_oracles(args.check)
        for name in strategies:
            make_strategy(name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ordered = {"auto": None, "yes": True, "no": False}[args.ordered]
    config = FuzzConfig(
        seed=args.seed,
        steps=args.steps,
        checks=args.check,
        strategies=strategies,
        policy=resolve_policy(args.policy),
        ordered=ordered,
        n_transactions=args.transactions,
        n_entities=args.entities,
        locks_per_txn=tuple(args.locks),
        write_ratio=args.write_ratio,
        shrink_failures=not args.no_shrink,
        time_budget=args.time_budget,
    )
    # Profile overrides win over the shape flags: ``--profile hot`` is a
    # named preset, not a default the flags tweak.
    config = apply_profile(config, args.profile)
    report = fuzz_campaign(config)
    print(f"{'seed':>16}: {config.seed}")
    print(f"{'rounds':>16}: {report.rounds}")
    print(f"{'strategies':>16}: {', '.join(strategies)}")
    print(f"{'oracles':>16}: "
          f"{args.check if args.check != 'all' else ', '.join(oracle_names())}")
    print(f"{'engine steps':>16}: {report.total_steps}")
    print(f"{'deadlocks':>16}: {report.deadlocks}")
    print(f"{'rollbacks':>16}: {report.rollbacks}")
    print(f"{'commits':>16}: {report.commits}")
    print(f"{'elapsed':>16}: {report.elapsed:.2f}s")
    print(f"{'fingerprint':>16}: {report.fingerprint}")
    print(f"{'violations':>16}: {len(report.failures)}")
    for index, failure in enumerate(report.failures):
        print()
        print(describe_failure(failure))
        shrunk = failure.shrunk.case if failure.shrunk else failure.case
        if args.emit and shrunk is not None:
            path = save_case(
                shrunk,
                f"{args.emit}/case_{shrunk.oracle}_{config.seed}_"
                f"{index}.json",
            )
            print(f"  regression case written to {path}")
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    import time

    from .resilience import ChaosReport, chaos_run, crash_recovery_sweep
    from .verification import resolve_policy

    if args.partition_heal or args.smoke:
        return _chaos_scenarios(args)

    config = WorkloadConfig(
        n_transactions=args.transactions,
        n_entities=args.entities,
        locks_per_txn=tuple(args.locks),
        write_ratio=args.write_ratio,
        skew=args.skew,
    )
    strategies = tuple(
        s.strip() for s in args.strategies.split(",") if s.strip()
    )
    policy = resolve_policy(args.policy)
    deadline = None
    if args.time_budget is not None:
        started = time.monotonic()
        deadline = (
            lambda: time.monotonic() - started >= args.time_budget
        )
    if args.crash_every_step:
        report = crash_recovery_sweep(
            config,
            workload_seed=args.workload_seed
            if args.workload_seed is not None else args.seed,
            strategies=strategies,
            policy=policy,
            chaos_seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            every=args.every,
            sites=args.sites,
            replicate=args.replicate,
            cross_site_mode=args.cross_site_mode,
            deadline=deadline,
        )
    else:
        outcomes, violations = [], []
        for round_index in range(args.rounds):
            if deadline is not None and deadline():
                break
            for strategy in strategies:
                outcome = chaos_run(
                    config,
                    workload_seed=args.workload_seed
                    if args.workload_seed is not None else args.seed,
                    chaos_seed=args.seed + round_index,
                    strategy=strategy,
                    policy=policy,
                    crashes=args.crashes,
                    site_crashes=args.site_crashes,
                    partitions=args.partitions,
                    message_faults=args.message_faults,
                    storage_faults=args.storage_faults,
                    stalls=args.stalls,
                    degrade=not args.no_degrade,
                    checkpoint_every=args.checkpoint_every,
                    sites=args.sites,
                    replicate=args.replicate,
                    cross_site_mode=args.cross_site_mode,
                )
                outcomes.append(outcome)
                if outcome.violation is not None:
                    violations.append(outcome.violation)
        report = ChaosReport(outcomes=outcomes, violations=violations)

    crashes = sum(outcome.crashes for outcome in report.outcomes)
    recovered = sum(
        outcome.crashes
        for outcome in report.outcomes
        if outcome.violation is None
    )
    print(f"{'seed':>16}: {args.seed}")
    print(f"{'mode':>16}: "
          f"{'crash-every-step' if args.crash_every_step else 'campaign'}")
    print(f"{'strategies':>16}: {', '.join(strategies)}")
    print(f"{'runs':>16}: {len(report.outcomes)}")
    print(f"{'engine steps':>16}: {report.steps}")
    print(f"{'crashes':>16}: {crashes}")
    print(f"{'recovered':>16}: {recovered}")
    print(f"{'fingerprint':>16}: {report.fingerprint()}")
    print(f"{'violations':>16}: {len(report.violations)}")
    for violation in report.violations[:args.max_report]:
        print(f"  {violation}")
    if len(report.violations) > args.max_report:
        print(f"  ... and {len(report.violations) - args.max_report} more")
    return 0 if report.ok else 1


def _chaos_scenarios(args) -> int:
    """The named partition/heal scenario suite (``--partition-heal`` and
    the CI replication smoke ``--smoke``); non-zero exit on any verdict
    other than ``clean``."""
    from .distributed.scenarios import run_scenario, scenario_names

    names = scenario_names()
    if args.smoke:
        # The CI gate: every named scenario once at the fixed seed, plus
        # a replicated crash-recovery run — small enough for every push.
        seeds = [args.seed]
    else:
        seeds = [args.seed + i for i in range(args.rounds)]
    failures = 0
    runs = 0
    for seed in seeds:
        for name in names:
            outcome = run_scenario(
                name, workload_seed=seed, chaos_seed=seed
            )
            runs += 1
            marker = "ok" if outcome.ok else "FAIL"
            interesting = {
                key: value
                for key, value in sorted(outcome.metrics.items())
                if key in (
                    "commits", "timeout_rollbacks", "replica_catchups",
                    "stale_write_skips", "unavailable_stalls",
                ) and value
            }
            print(f"  [{marker}] {name} (seed {seed}) {interesting}")
            if not outcome.ok:
                failures += 1
                for reason in outcome.reasons[:args.max_report]:
                    print(f"         {reason}")
    print(f"{'mode':>16}: {'smoke' if args.smoke else 'partition-heal'}")
    print(f"{'scenarios':>16}: {', '.join(names)}")
    print(f"{'runs':>16}: {runs}")
    print(f"{'failures':>16}: {failures}")
    return 0 if failures == 0 else 1


def cmd_overload(args) -> int:
    from .admission.stress import OverloadConfig, overload_run
    from .core.diagnosis import diagnose

    admission = None if args.admission == "none" else args.admission
    if args.smoke:
        # A small fixed-shape run for CI gating: known to drain cleanly
        # (zero starved) at any seed within the step budget.
        config = OverloadConfig(
            n_transactions=12,
            n_entities=4,
            locks_per_txn=(2, 3),
            admission_policy=admission,
            deadline_steps=400,
            max_steps=60_000,
        )
    else:
        config = OverloadConfig(
            n_transactions=args.transactions,
            n_entities=args.entities,
            locks_per_txn=tuple(args.locks),
            write_ratio=args.write_ratio,
            interarrival=args.interarrival,
            admission_policy=admission,
            mpl=args.mpl,
            deadline_steps=args.deadline,
            strategy=args.strategy,
            policy=args.policy,
            max_steps=args.max_steps,
        )
    engines = []
    report, result = overload_run(
        config, seed=args.seed, instrument=engines.append
    )
    print(f"seed                 {args.seed}")
    print(f"mode                 "
          f"{'closed loop' if config.interarrival == 0 else 'open loop'}"
          f"{' (smoke)' if args.smoke else ''}")
    print(report.describe())
    print(f"fingerprint          {report.fingerprint()}")
    if result.livelock_detected:
        engine = engines[0]
        print(f"livelock detected: no commit for {engine.livelock_window} "
              f"steps under {config.policy}")
        print(diagnose(engine.scheduler, step=result.steps).describe())
        return 1
    return 0 if report.no_starvation else 1


def cmd_advise(args) -> int:
    from .simulation.workload import WorkloadConfig
    from .staticcheck.workload import analyze_config, analyze_journal

    def build_report():
        if args.journal:
            return analyze_journal(
                args.journal, max_cycle_length=args.max_cycle_length
            )
        config = WorkloadConfig(
            n_transactions=args.transactions,
            n_entities=args.entities,
            locks_per_txn=tuple(args.locks),
            write_ratio=args.write_ratio,
            skew=args.skew,
        )
        return analyze_config(
            config,
            seed=args.seed,
            max_cycle_length=args.max_cycle_length,
        )

    if args.smoke:
        # CI gate: analyze a fixed hostile workload twice, require
        # byte-identical JSON and a sane verdict; any internal error
        # (exception, score out of range) exits non-zero.
        try:
            hot = WorkloadConfig(
                n_transactions=32,
                n_entities=6,
                locks_per_txn=(2, 4),
                write_ratio=1.0,
            )
            first = analyze_config(hot, seed=args.seed)
            second = analyze_config(hot, seed=args.seed)
            identical = first.to_json() == second.to_json()
            sane = (
                0.0 <= first.mean_pair_risk <= 1.0
                and first.recommended_mpl() >= 1
                and first.total_templates == 32
                and all(0.0 <= c.score <= 1.0 for c in first.classes)
            )
            print(f"deterministic        {identical}")
            print(f"sane                 {sane}")
            print(first.describe())
            return 0 if identical and sane else 1
        except Exception as exc:  # noqa: BLE001 - the gate must not pass
            print(f"advise smoke failed: {exc!r}")
            return 1

    report = build_report()
    if args.json:
        print(report.to_json(args.budget))
    else:
        print(report.describe(args.budget))
        print(
            f"suggested            repro overload --admission predictive, "
            f"or fixed-mpl --mpl {report.recommended_mpl(args.budget)}"
        )
    return 0


def cmd_lint(args) -> int:
    import json
    from pathlib import Path

    from .staticcheck import (
        all_rules,
        default_checkers,
        predict_corpus,
        predict_journal,
        run_lint,
    )

    if args.list_rules:
        for rule, title in all_rules():
            print(f"{rule}  {title}")
        return 0

    # A wrong input must not read as a clean run: an unknown rule would
    # run no checker and a missing path would lint nothing.
    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
        rules = [rule for rule, _ in all_rules()]
        unknown = [s for s in select if s.upper() not in rules]
        if unknown or not select:
            args.usage_error(
                f"--select: unknown rule(s) "
                f"{', '.join(unknown) or repr(args.select)}; "
                f"valid rules: {', '.join(rules)}"
            )
    for path in args.paths:
        if not Path(path).exists():
            args.usage_error(f"no such file or directory: {path}")
    if args.predict and not Path(args.corpus).is_dir():
        args.usage_error(f"--corpus: no such directory: {args.corpus}")
    for journal in args.journal or ():
        if not Path(journal).is_file():
            args.usage_error(f"--journal: no such file: {journal}")
    report = run_lint(
        [Path(p) for p in args.paths], default_checkers(), select=select
    )
    exit_code = 0

    if args.json:
        print(json.dumps(
            {
                "files_checked": report.files_checked,
                "findings": [f.to_dict() for f in report.findings],
                "suppressed": [
                    {**f.to_dict(), "justification": s.justification}
                    for f, s in report.suppressed
                ],
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        for finding in report.parse_errors + report.findings:
            print(finding.render())
        if args.show_suppressed:
            for finding, supp in report.suppressed:
                why = supp.justification or "(no justification)"
                print(f"{finding.render()}  [suppressed: {why}]")
    bare = report.bare_suppressions()
    for finding, _supp in bare:
        print(
            f"{finding.path}:{finding.line}: noqa[{finding.rule}] "
            f"without a justification; say why the waiver is safe",
            file=sys.stderr,
        )
    if not report.ok or bare:
        exit_code = 1
    if not args.json:
        print(
            f"checked {report.files_checked} files: "
            f"{len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed"
        )

    if args.predict or args.journal:
        print()
        alternates = 0
        reports = []
        if args.predict:
            reports.extend(
                predict_corpus(
                    args.corpus, max_cycle_length=args.max_cycle_length
                )
            )
        for journal in args.journal or ():
            reports.append(
                predict_journal(
                    journal, max_cycle_length=args.max_cycle_length
                )
            )
        for pred in reports:
            segments = (
                f" [{pred.segments} boot segment(s)]"
                if pred.segments > 1
                else ""
            )
            print(
                f"{pred.case_path}: {pred.acquisitions} acquisitions, "
                f"{pred.edges} lock-order edges, "
                f"{pred.trace_deadlocks} distinct deadlocked transaction "
                f"set(s) recorded, {len(pred.predicted)} predicted cycle(s)"
                f"{segments}"
            )
            for deadlock in pred.predicted:
                print(f"  {deadlock.describe()}")
            alternates += len(pred.alternates)
            if not pred.ok:
                # A feasible cycle the engine could not realize means
                # the feasibility check over-approximated — fail loudly.
                exit_code = 1
        print(
            f"predict: {alternates} confirmed alternate-interleaving "
            f"deadlock(s) across the corpus"
        )

    return exit_code


def cmd_trace(args) -> int:
    import json
    from pathlib import Path

    from .observability.export import (
        fingerprint,
        graph_snapshots,
        to_chrome,
        to_jsonl,
    )
    from .observability.scenarios import record_scenario
    from .observability.spans import build_spans, validate_spans
    from .observability.streaming import StreamingAggregator

    if args.smoke:
        # CI gate: record the scenario twice from the same seed and
        # require byte-identical JSONL plus a well-formed span timeline.
        first, _ = record_scenario(
            args.scenario, seed=args.seed, sample_every=args.sample_every
        )
        second, _ = record_scenario(
            args.scenario, seed=args.seed, sample_every=args.sample_every
        )
        identical = to_jsonl(first.events) == to_jsonl(second.events)
        errors = validate_spans(build_spans(first.events))
        print(f"scenario             {args.scenario}")
        print(f"seed                 {args.seed}")
        print(f"events               {len(first.events)}")
        print(f"deterministic        {identical}")
        print(f"span errors          {len(errors)}")
        for error in errors[:5]:
            print(f"  {error}")
        print(f"fingerprint          {fingerprint(first.events)}")
        return 0 if identical and not errors else 1

    recorder, context = record_scenario(
        args.scenario, seed=args.seed, sample_every=args.sample_every
    )
    events = recorder.events
    if args.txn:
        from .observability.tracing import (
            build_txn_trace,
            render_txn_trace,
            trace_ids,
        )

        txn_trace = build_txn_trace(events, args.txn)
        if not txn_trace.entries:
            known = ", ".join(trace_ids(events)) or "none"
            print(
                f"no events for transaction {args.txn!r} in scenario "
                f"{args.scenario!r} (seed {args.seed}); known: {known}"
            )
            return 1
        if args.format == "jsonl":
            payload = (
                json.dumps(txn_trace.to_obj(), sort_keys=True) + "\n"
            )
        else:
            payload = render_txn_trace(txn_trace)
        if args.out:
            Path(args.out).write_text(payload)
            print(f"wrote {args.out} ({len(txn_trace.entries)} entries)")
        else:
            sys.stdout.write(payload)
        return 0
    if args.format == "jsonl":
        payload = to_jsonl(events)
    elif args.format == "chrome":
        payload = (
            json.dumps(to_chrome(events), indent=2, sort_keys=True) + "\n"
        )
    else:
        spans = build_spans(events)
        aggregator = StreamingAggregator()
        for event in events:
            aggregator(event)
        series = aggregator.timeseries_obj()
        lines = [f"scenario             {args.scenario}"]
        for key, value in context.items():
            if key in ("scenario", "metrics"):
                continue
            lines.append(f"{key:<21}{value}")
        lines += [
            f"events               {len(events)}",
            f"spans                {len(spans)}",
            f"graph snapshots      {len(graph_snapshots(events))}",
            f"block p50/p99        "
            f"{series['block_p50']}/{series['block_p99']} steps",
            f"peak active/blocked  "
            f"{series['peak_active']}/{series['peak_blocked']}",
            f"fingerprint          {fingerprint(events)}",
        ]
        payload = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out} ({len(events)} events)")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_top_follow(args) -> int:
    """Poll a running server's ``metrics`` verb and render it live."""
    import json
    import time as _time

    from .observability.top import render_top, report_from_metrics
    from .service.client import RetryBudgetExhausted, ServiceClient

    host, port = args.connect
    iteration = 0
    with ServiceClient(host, port, name="repro-top") as c:
        while True:
            iteration += 1
            try:
                reply = c.metrics()
            except RetryBudgetExhausted as exc:
                print(f"repro top: cannot reach {host}:{port}: {exc}",
                      file=sys.stderr)
                return 1
            metrics = {
                k: v
                for k, v in reply.items()
                if k not in ("rid", "ok", "verb", "code")
            }
            if args.json:
                print(json.dumps(metrics, sort_keys=True))
            else:
                print(render_top(report_from_metrics(metrics, args.limit)))
                print()
            if args.iterations and iteration >= args.iterations:
                return 0
            _time.sleep(args.interval)


def cmd_top(args) -> int:
    import json

    from .observability.scenarios import record_scenario
    from .observability.top import build_top, render_top

    if args.follow and args.connect is None:
        args.usage_error("--follow needs --connect HOST:PORT")
    if args.connect is not None:
        return _cmd_top_follow(args)
    recorder, _context = record_scenario(
        args.scenario, seed=args.seed, sample_every=args.sample_every
    )
    report = build_top(recorder.events, at=args.at, limit=args.limit)
    if args.json:
        print(json.dumps(report.to_obj(), indent=2, sort_keys=True))
    else:
        print(render_top(report))
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import json
    import tempfile

    from .service.core import ServiceConfig
    from .service.replay import verify_journal
    from .service.server import serve

    if args.verify:
        divergences = verify_journal(args.verify)
        if divergences:
            print(f"REPLAY DIVERGED ({len(divergences)}):")
            for line in divergences:
                print(f"  {line}")
            return 1
        print(f"replay verified: {args.verify} — zero divergences")
        return 0

    if args.smoke:
        from .service.smoke import run_smoke

        workdir = args.workdir or tempfile.mkdtemp(prefix="repro-smoke-")
        report = run_smoke(
            workdir,
            clients=args.clients,
            commits_per_client=args.commits,
            kill_after=args.kill_after,
            entities=args.entities,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1

    config = ServiceConfig(
        max_sessions=args.max_sessions,
        deadline_steps=args.deadline,
        strategy=args.strategy,
        policy=args.policy,
    )
    return asyncio.run(
        serve(
            args.host,
            args.port,
            args.entities,
            args.initial,
            config,
            journal_path=args.journal,
            port_file=args.port_file,
            tick_interval=args.tick_interval,
            drain_timeout=args.drain_timeout,
            metrics_port=(
                args.metrics_port if args.metrics else None
            ),
            metrics_port_file=args.metrics_port_file,
        )
    )


def cmd_figures(_args) -> int:
    print("Figure 1 — exclusive-lock deadlock, cost-optimal victim")
    engine, result = drive_figure1(policy="min-cost")
    print(f"  cycle: {' -> '.join(result.deadlock.cycles[0])}")
    print(f"  action: {result.actions[0]}  (paper: rollback T2, cost 4)")
    print("  graph after resolution:")
    for line in concurrency_to_ascii(
        engine.scheduler.concurrency_graph()
    ).splitlines():
        print(f"    {line}")

    print("\nFigure 2 — potentially infinite mutual preemption")
    unordered = drive_figure2("min-cost")
    ordered = drive_figure2("ordered-min-cost")
    print(f"  min-cost:         livelock={unordered.livelock_detected} "
          f"rollbacks={unordered.metrics.rollbacks}")
    print(f"  ordered-min-cost: livelock={ordered.livelock_detected} "
          f"commits={len(ordered.committed)}  (Theorem 2)")

    print("\nFigure 3 — shared + exclusive locks")
    a, b, c = figure3a(), figure3b(), figure3c()
    print(f"  3(a): forest={a.is_forest()} deadlock={a.has_deadlock()}")
    print(f"  3(b): cycles through T1: {b.cycles_through('T1')}")
    print(f"  3(c): cycles through T1: {c.cycles_through('T1')}")

    print("\nFigure 4 — state-dependency graph")
    print(f"  scattered T1:  well-defined = "
          f"{well_defined_states(figure4_transaction())}")
    print(f"  without C<-K:  well-defined = "
          f"{well_defined_states(figure4_transaction_without_ck())}")

    print("\nFigure 5 — clustered writes")
    print(f"  clustered T2:  well-defined = "
          f"{well_defined_states(figure5_transaction())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .staticcheck import all_rules
    from .verification import COPY_STRATEGIES, oracle_names
    from .verification.faults import FAULT_POLICIES
    from .verification.fuzzer import FUZZ_PROFILES

    fault_policy_names = tuple(sorted(FAULT_POLICIES))
    # The epilogs enumerate the registries at parser-build time, so
    # ``--help`` always matches what make_strategy/make_policy accept.
    registry_epilog = (
        f"registered strategies: {', '.join(STRATEGIES)} | "
        f"victim policies: {', '.join(POLICIES)} | "
        f"fault policies: {', '.join(fault_policy_names)} | "
        f"oracles: {', '.join(oracle_names())}"
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Partial-rollback deadlock removal "
            "(Fussell/Kedem/Silberschatz, SIGMOD 1981) — simulation CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one synthetic workload")
    _add_workload_args(p_run)
    p_run.add_argument("--strategy", choices=STRATEGIES, default="mcs")
    p_run.add_argument("--policy", choices=POLICIES,
                       default="ordered-min-cost", help=POLICY_HELP)
    p_run.add_argument("--trace", action="store_true",
                       help="print the full event trace")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="same workload under all strategies")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--policy", choices=POLICIES,
                       default="ordered-min-cost", help=POLICY_HELP)
    p_cmp.set_defaults(fn=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one axis over a workload and tabulate"
    )
    _add_workload_args(p_sweep)
    p_sweep.add_argument("--axis",
                         choices=("strategy", "policy", "concurrency"),
                         default="strategy")
    p_sweep.add_argument("--policy", choices=POLICIES,
                         default="ordered-min-cost", help=POLICY_HELP)
    p_sweep.add_argument("--seeds", type=int, default=3,
                         help="number of seeds per cell")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_fig = sub.add_parser("figures",
                           help="reproduce the paper's figures")
    p_fig.set_defaults(fn=cmd_figures)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="fuzz schedules across strategies with invariant oracles",
        epilog=registry_epilog,
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (whole campaign derives "
                             "from it)")
    p_fuzz.add_argument("--steps", type=int, default=2000,
                        help="total engine-step budget for the campaign")
    p_fuzz.add_argument("--check", default="all",
                        help="'all' or comma-separated oracle names")
    p_fuzz.add_argument("--strategies",
                        default=",".join(COPY_STRATEGIES),
                        help="comma-separated rollback strategies to "
                             "differentially compare")
    # Fault policies (deliberately broken, from repro.verification.faults)
    # are accepted too, so a planted bug's detection can be reproduced
    # from the command line.
    p_fuzz.add_argument("--policy",
                        choices=POLICIES + fault_policy_names,
                        default="ordered-min-cost", help=POLICY_HELP)
    p_fuzz.add_argument("--ordered", choices=("auto", "yes", "no"),
                        default="auto",
                        help="arm the Theorem 2 oracles regardless of the "
                             "policy name ('auto' infers from the name)")
    p_fuzz.add_argument("--transactions", type=_int_at_least(1), default=5)
    p_fuzz.add_argument("--entities", type=_int_at_least(1), default=5)
    p_fuzz.add_argument("--locks", type=int, nargs=2, default=(2, 4),
                        metavar=("MIN", "MAX"))
    p_fuzz.add_argument("--write-ratio", type=float, default=0.75,
                        help="write ratio for mixed (odd) rounds; even "
                             "rounds are always exclusive-only")
    p_fuzz.add_argument("--profile",
                        choices=tuple(sorted(FUZZ_PROFILES)),
                        default="default",
                        help="named workload preset ('hot' = high "
                             "contention: many writers, few entities)")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock cap in seconds (CI smoke runs)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report failures without ddmin shrinking")
    p_fuzz.add_argument("--emit", default=None, metavar="DIR",
                        help="write shrunk failures as regression JSON "
                             "files into DIR")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic fault injection with crash recovery "
             "(see docs/RESILIENCE.md)",
        epilog=registry_epilog,
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="chaos seed: the entire fault schedule "
                              "derives from it")
    p_chaos.add_argument("--workload-seed", type=int, default=None,
                         help="workload seed (defaults to --seed)")
    p_chaos.add_argument("--transactions", type=_int_at_least(1), default=5)
    p_chaos.add_argument("--entities", type=_int_at_least(1), default=6)
    p_chaos.add_argument("--locks", type=int, nargs=2, default=(2, 4),
                         metavar=("MIN", "MAX"))
    p_chaos.add_argument("--write-ratio", type=float, default=1.0)
    p_chaos.add_argument("--skew",
                         choices=("uniform", "zipf", "hotspot"),
                         default="uniform")
    p_chaos.add_argument("--strategies",
                         default=",".join(COPY_STRATEGIES),
                         help="comma-separated rollback strategies")
    p_chaos.add_argument("--policy",
                         choices=POLICIES + fault_policy_names,
                         default="ordered-min-cost", help=POLICY_HELP)
    p_chaos.add_argument("--crash-every-step", action="store_true",
                         help="sweep: plant one crash at every recorded "
                              "event index and check recovery "
                              "equivalence")
    p_chaos.add_argument("--every", type=int, default=1,
                         help="sweep stride between crash points")
    p_chaos.add_argument("--rounds", type=int, default=3,
                         help="campaign rounds (non-sweep mode)")
    p_chaos.add_argument("--crashes", type=int, default=1,
                         help="scheduler crashes per campaign run")
    p_chaos.add_argument("--site-crashes", type=int, default=0)
    p_chaos.add_argument("--partitions", type=int, default=0,
                         help="random network partitions to draw from the "
                              "seed (requires --sites >= 2)")
    p_chaos.add_argument("--replicate", type=int, default=0,
                         help="placement of the distributed run: 0 "
                              "is a fixed round-robin ring (one copy "
                              "per entity), >= 1 a consistent-hash "
                              "ring with that replication factor")
    p_chaos.add_argument("--partition-heal", action="store_true",
                         help="run the named partition/heal scenario "
                              "suite instead of the random campaign")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="the CI replication smoke: every named "
                              "scenario once at the fixed seed; non-zero "
                              "exit on any oracle violation")
    p_chaos.add_argument("--message-faults", type=int, default=0,
                         help="network drops/duplicates/delays per run "
                              "(needs --sites)")
    p_chaos.add_argument("--storage-faults", type=int, default=0,
                         help="copy-pop / undo-apply faults per run")
    p_chaos.add_argument("--stalls", type=int, default=0,
                         help="transaction stalls per run")
    p_chaos.add_argument("--no-degrade", action="store_true",
                         help="propagate storage faults instead of "
                              "degrading to total restart")
    p_chaos.add_argument("--sites", type=int, default=0,
                         help="run distributed over this many sites "
                              "(0 = centralised)")
    p_chaos.add_argument("--cross-site-mode",
                         choices=("wound-wait", "wait-die", "probe"),
                         default="wound-wait")
    p_chaos.add_argument("--checkpoint-every", type=int, default=10,
                         help="recorded events between WAL checkpoints")
    p_chaos.add_argument("--time-budget", type=float, default=None,
                         help="wall-clock cap in seconds (CI smoke runs)")
    p_chaos.add_argument("--max-report", type=int, default=5,
                         help="violations to print in full")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_over = sub.add_parser(
        "overload",
        help="seeded overload stress through the admission layer "
             "(see docs/RESILIENCE.md)",
        epilog=registry_epilog,
    )
    p_over.add_argument("--seed", type=int, default=0,
                        help="workload + interleaving + AIMD probe seed")
    p_over.add_argument("--smoke", action="store_true",
                        help="small fixed-shape run for CI gating "
                             "(ignores the workload flags)")
    p_over.add_argument("--transactions", type=_int_at_least(1), default=32)
    p_over.add_argument("--entities", type=_int_at_least(1), default=6)
    p_over.add_argument("--locks", type=int, nargs=2, default=(2, 4),
                        metavar=("MIN", "MAX"))
    p_over.add_argument("--write-ratio", type=float, default=1.0)
    p_over.add_argument("--interarrival", type=int, default=0,
                        help="steps between arrivals (0 = closed loop: "
                             "everything arrives at step 0)")
    p_over.add_argument("--admission",
                        choices=("aimd", "fixed-mpl", "predictive", "none"),
                        default="aimd",
                        help="admission policy gating registration "
                             "(predictive = static workload risk scoring, "
                             "see repro advise)")
    p_over.add_argument("--mpl", type=int, default=8,
                        help="multiprogramming level for fixed-mpl")
    p_over.add_argument("--deadline", type=int, default=600,
                        help="steps before the escalation ladder starts "
                             "(0 = no deadlines)")
    p_over.add_argument("--strategy", choices=STRATEGIES, default="mcs")
    p_over.add_argument("--policy", choices=POLICIES,
                        default="ordered-min-cost", help=POLICY_HELP)
    p_over.add_argument("--max-steps", type=int, default=200_000)
    p_over.set_defaults(fn=cmd_overload)

    from .observability.scenarios import SCENARIOS

    p_trace = sub.add_parser(
        "trace",
        help="record a scenario and export its event trace "
             "(see docs/OBSERVABILITY.md)",
        epilog="scenarios: " + ", ".join(SCENARIOS),
    )
    p_trace.add_argument("scenario", nargs="?", default="run",
                         choices=SCENARIOS,
                         help="named scenario to record (default: a "
                              "seeded synthetic run)")
    p_trace.add_argument("--seed", type=int, default=0,
                         help="scenario seed (same seed, byte-identical "
                              "export)")
    p_trace.add_argument("--format",
                         choices=("jsonl", "chrome", "summary"),
                         default="jsonl",
                         help="jsonl event log, Chrome trace_event JSON, "
                              "or a human-readable summary")
    p_trace.add_argument("--txn", default=None, metavar="TXN",
                         help="drill into one transaction: render its "
                              "stitched cross-site timeline (summary) "
                              "or structured object (jsonl)")
    p_trace.add_argument("--out", default=None, metavar="FILE",
                         help="write the export to FILE instead of "
                              "stdout")
    p_trace.add_argument("--sample-every", type=_int_at_least(0), default=25,
                         help="steps between waits-for graph snapshots "
                              "(0 = no snapshots)")
    p_trace.add_argument("--smoke", action="store_true",
                         help="CI gate: double-run the scenario and "
                              "fail unless exports are byte-identical "
                              "and the span timeline validates")
    p_trace.set_defaults(fn=cmd_trace)

    p_top = sub.add_parser(
        "top",
        help="operator dashboard computed from a recorded scenario "
             "(see docs/OBSERVABILITY.md)",
        epilog="scenarios: " + ", ".join(SCENARIOS),
    )
    p_top.add_argument("scenario", nargs="?", default="run",
                       choices=SCENARIOS)
    p_top.add_argument("--seed", type=int, default=0)
    p_top.add_argument("--at", type=int, default=None,
                       help="dashboard as of this step (default: end "
                            "of run)")
    p_top.add_argument("--limit", type=int, default=5,
                       help="rows per ranking table")
    p_top.add_argument("--sample-every", type=_int_at_least(0), default=25)
    p_top.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    p_top.add_argument("--follow", action="store_true",
                       help="poll a running server's metrics verb "
                            "instead of recording a scenario")
    p_top.add_argument("--connect", type=_host_port, default=None,
                       metavar="HOST:PORT",
                       help="server address for --follow")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between --follow polls")
    p_top.add_argument("--iterations", type=int, default=0,
                       help="stop --follow after N polls (0 = forever)")
    p_top.set_defaults(fn=cmd_top, usage_error=p_top.error)

    p_serve = sub.add_parser(
        "serve",
        help="run the network-facing lock service "
             "(see docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--port-file", default=None,
                         help="write the bound port to this file")
    p_serve.add_argument("--entities", type=int, default=16,
                         help="number of entities e000..eNNN")
    p_serve.add_argument("--initial", type=int, default=0,
                         help="initial value of every entity")
    p_serve.add_argument("--journal", default=None,
                         help="request-journal path: the durable log "
                              "(enables crash recovery and --verify)")
    p_serve.add_argument("--max-sessions", type=int, default=8,
                         help="admission MPL; over capacity answers 429")
    p_serve.add_argument("--deadline", type=int, default=60,
                         help="default deadline in logical steps")
    p_serve.add_argument("--strategy", choices=STRATEGIES, default="mcs")
    p_serve.add_argument("--policy", choices=POLICIES,
                         default="ordered-min-cost", help=POLICY_HELP)
    p_serve.add_argument("--tick-interval", type=float, default=0.05,
                         help="idle-ticker period in seconds")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         help="seconds to wait for sessions on SIGTERM")
    p_serve.add_argument("--verify", default=None, metavar="JOURNAL",
                         help="replay JOURNAL through the simulator and "
                              "report divergences instead of serving")
    p_serve.add_argument("--smoke", action="store_true",
                         help="boot, storm, kill -9, restart, drain, "
                              "verify — the CI gate")
    p_serve.add_argument("--workdir", default=None,
                         help="smoke working directory (default: tmp)")
    p_serve.add_argument("--clients", type=int, default=4,
                         help="smoke: concurrent storm clients")
    p_serve.add_argument("--commits", type=int, default=3,
                         help="smoke: commits required per client")
    p_serve.add_argument("--kill-after", type=float, nargs="+", default=[1.0],
                         help="smoke: seconds before each SIGKILL "
                              "(one crash/restart cycle per value)")
    p_serve.add_argument("--metrics", action="store_true",
                         help="also serve Prometheus text exposition "
                              "on a second HTTP listener")
    p_serve.add_argument("--metrics-port", type=int, default=0,
                         help="metrics listener port (0 = ephemeral)")
    p_serve.add_argument("--metrics-port-file", default=None,
                         help="write the bound metrics port to this "
                              "file")
    p_serve.set_defaults(fn=cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis rules "
             "(see docs/STATIC_ANALYSIS.md)",
        epilog="rules: " + "; ".join(
            f"{rule} {title}" for rule, title in all_rules()
        ),
    )
    p_lint.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    p_lint.add_argument("--select", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    p_lint.add_argument("--show-suppressed", action="store_true",
                        help="also print pragma-suppressed findings")
    p_lint.add_argument("--predict", action="store_true",
                        help="build lock-order graphs from the recorded "
                             "regression traces and report deadlocks "
                             "reachable in alternate interleavings")
    p_lint.add_argument("--corpus", default="tests/regressions",
                        help="regression-case directory for --predict")
    p_lint.add_argument("--journal", action="append", default=None,
                        metavar="JSONL",
                        help="also predict from this service journal "
                             "(repeatable; a ring never spans two boot "
                             "segments)")
    p_lint.add_argument("--max-cycle-length", type=_int_at_least(2),
                        default=4,
                        help="largest predicted cycle to search for")
    p_lint.set_defaults(fn=cmd_lint, usage_error=p_lint.error)

    p_advise = sub.add_parser(
        "advise",
        help="static workload deadlock-risk scoring and MPL advice "
             "(see docs/STATIC_ANALYSIS.md)",
    )
    p_advise.add_argument("--seed", type=int, default=0,
                          help="workload generation seed")
    p_advise.add_argument("--transactions", type=_int_at_least(1), default=32)
    p_advise.add_argument("--entities", type=_int_at_least(1), default=6)
    p_advise.add_argument("--locks", type=int, nargs=2, default=(2, 4),
                          metavar=("MIN", "MAX"))
    p_advise.add_argument("--write-ratio", type=float, default=1.0)
    p_advise.add_argument("--skew",
                          choices=("uniform", "zipf", "hotspot"),
                          default="uniform")
    p_advise.add_argument("--journal", default=None, metavar="JSONL",
                          help="score the workload a service journal "
                               "recorded instead of generating one")
    p_advise.add_argument("--budget", type=_positive_float, default=0.5,
                          help="expected-deadlock budget behind the MPL "
                               "recommendation")
    p_advise.add_argument("--max-cycle-length", type=_int_at_least(2),
                          default=4,
                          help="largest cross-class entity ring to "
                               "search for")
    p_advise.add_argument("--json", action="store_true",
                          help="machine-readable report on stdout")
    p_advise.add_argument("--smoke", action="store_true",
                          help="CI gate: fixed workload analyzed twice, "
                               "byte-identical and sane or non-zero exit")
    p_advise.set_defaults(fn=cmd_advise)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    locks = getattr(args, "locks", None)
    if locks is not None and not 1 <= locks[0] <= locks[1] <= args.entities:
        parser.error(
            f"--locks {locks[0]} {locks[1]} must satisfy "
            f"1 <= MIN <= MAX <= --entities ({args.entities})"
        )
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
