"""Command-line interface.

::

    python -m repro analyze loop.txt        # footprints + exact windows
    python -m repro dependences loop.txt    # distance vectors, kinds, levels
    python -m repro optimize loop.txt --codegen
    python -m repro size loop.txt           # provision an on-chip buffer
    python -m repro buffer loop.txt         # modulo window allocation + codegen
    python -m repro distribute loop.txt     # legal loop fission
    python -m repro viz loop.txt            # reuse region / window profile art
    python -m repro figure2 [--kernel sor]  # regenerate the paper's table
    python -m repro param sor --sizes 32x32,64x64
                                            # closed forms in the loop bounds
    python -m repro check --seeds 500       # fuzz the conformance oracles
    python -m repro check --replay f.json   # replay one corpus counterexample
    python -m repro batch manifest.json     # batch-evaluate a manifest
    python -m repro runs list               # run ledger: every recorded run
    python -m repro runs diff last~1 last   # why do two runs differ?
    python -m repro tail <run>              # live heartbeat view of a run
    python -m repro bench-trend DIR...      # trend-check a BENCH_* trajectory

Global flags (before the subcommand):

    --workers N        worker processes of the analysis pool behind
                       `batch` and `serve` (other subcommands run in
                       this process and ignore it)
    --trace out.jsonl  record an observability trace; prints a span
                       summary on exit (see docs/observability.md)
    --store DIR        keep and reuse whole answers (`analyze`,
                       `optimize`, `size --optimized`, `figure2`,
                       `batch`, `serve`), hierarchy plans and closed
                       forms in a content-addressed store (default: the
                       REPRO_STORE_DIR environment variable, if set)

The input format is the small C-like syntax of :mod:`repro.ir.parser`
(see examples/ and README).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.api import evaluate_kind, load_program
from repro.ir.parser import ParseError


def _load_target(target: str):
    """A program file when ``target`` names one, else a Figure-2 kernel."""
    if Path(target).exists():
        return load_program(file=target)
    return load_program(kernel=target)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.pipeline import format_analysis

    program = load_program(file=args.file)
    print(format_analysis(
        evaluate_kind("analyze", program, store=args.store_obj)
    ))
    return 0


def _cmd_dependences(args: argparse.Namespace) -> int:
    from repro.dependence import program_dependences

    program = load_program(file=args.file)
    deps = program_dependences(program, include_input=not args.no_input)
    if not deps:
        print("no constant-distance dependences")
        return 0
    for dep in deps:
        tag = " (reduction)" if dep.reduction else ""
        print(
            f"{dep.kind.value:<7} {dep.array:<8} d={dep.distance} "
            f"level={dep.level}{tag}"
        )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.linalg import IntMatrix

    program = load_program(file=args.file)
    answer = evaluate_kind("optimize", program, store=args.store_obj)
    before, after = answer["mws_before"], answer["mws_after"]
    reduction = 1.0 - after / before if before else 0.0
    transformation = IntMatrix(answer["t"])
    print(f"MWS before : {before}")
    print(f"MWS after  : {after}")
    print(f"reduction  : {100 * reduction:.1f}%")
    print("T =")
    print(transformation.pretty())
    if args.hierarchy:
        from repro.memory.hierarchy import preset
        from repro.transform.hierarchy_search import search_hierarchy

        hierarchy = preset(args.hierarchy)
        search = search_hierarchy(
            program,
            hierarchy,
            candidates=[None, transformation],
            store=args.store_obj,
        )
        print()
        print(f"hierarchy plan ({hierarchy.name}):")
        print(f"  joint : {search.best.describe(hierarchy)}")
        print(f"  flat  : {search.flat.describe(hierarchy)}")
        print(f"  saving: {search.savings_pct:.1f}% "
              f"(certified floor {search.floor_energy_pj:.0f} pJ)")
    if args.codegen:
        from repro.ir import generate_transformed_source

        print()
        print(generate_transformed_source(program, transformation))
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.memory.hierarchy import preset
    from repro.memory.sizing import size_memory_for_hierarchy
    from repro.reporting import render_hierarchy_table
    from repro.transform.hierarchy_search import search_hierarchy

    program = _load_target(args.target)
    hierarchy = preset(args.preset)
    report = size_memory_for_hierarchy(program, hierarchy, policy=args.policy)
    needed = (
        "insufficient (capacity misses unavoidable)"
        if report.tiers_needed is None
        else f"{report.tiers_needed} of {hierarchy.depth}"
    )
    print(f"{program.name} through hierarchy {hierarchy.name!r}")
    print(f"maximum window size : {report.mws_words} words")
    print(f"tiers needed        : {needed}")
    print()
    print(render_hierarchy_table(report.stats))
    if not args.no_search:
        candidates = [None] if args.native else None
        search = search_hierarchy(
            program, hierarchy, candidates=candidates, store=args.store_obj
        )
        print()
        print("joint (transformation, tile, placement) search:")
        print(f"  joint : {search.best.describe(hierarchy)}")
        print(f"  flat  : {search.flat.describe(hierarchy)}")
        print(f"  saving: {search.savings_pct:.1f}%  "
              f"certified floor {search.floor_energy_pj:.0f} pJ  "
              f"offchip lower bound {search.bound_words} words")
        print(f"  configs {search.configs}  evaluated {search.evaluated}  "
              f"pruned {search.pruned}")
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.linalg import IntMatrix
    from repro.memory import size_memory_for_program

    program = load_program(file=args.file)
    transformation = None
    if args.optimized:
        transformation = IntMatrix(
            evaluate_kind("optimize", program, store=args.store_obj)["t"]
        )
    report = size_memory_for_program(program, transformation)
    print(f"declared            : {report.declared_words} words")
    print(f"maximum window size : {report.mws_words} words")
    print(f"provisioned         : {report.provisioned_words} words")
    print(f"off-chip transfers  : {report.offchip_transfers}")
    print(f"memory reduction    : {100 * report.memory_reduction:.1f}%")
    print(
        f"energy/access       : {report.energy_per_access_pj:.2f} pJ "
        f"(naive {report.naive_energy_per_access_pj:.2f} pJ)"
    )
    return 0


def _cmd_buffer(args: argparse.Namespace) -> int:
    from repro.transform import allocate_window, rewrite_with_buffer
    from repro.transform.search import search_mws_2d, search_mws_3d

    program = load_program(file=args.file)
    array = args.array or program.arrays[0]
    transformation = None
    if args.optimized:
        depth = program.nest.depth
        if depth == 2:
            transformation = search_mws_2d(program, array).transformation
        elif depth == 3:
            transformation = search_mws_3d(program, array).transformation
    alloc = allocate_window(program, array, transformation)
    print(f"array {array}: declared={alloc.declared} MWS={alloc.mws} "
          f"modulus={alloc.modulus} (overhead {100 * alloc.overhead:.0f}%)")
    if transformation is None:
        print()
        print(rewrite_with_buffer(program, array, alloc))
    return 0


def _cmd_distribute(args: argparse.Namespace) -> int:
    from repro.ir import generate_source
    from repro.transform import distribute

    program = load_program(file=args.file)
    sequence = distribute(program)
    print(f"{len(sequence.programs)} nest(s) after distribution:")
    for part in sequence.programs:
        print()
        print(generate_source(part), end="")
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    from repro.transform.legality import reuse_distances
    from repro.viz import render_profile_bars, render_reuse_region
    from repro.window import window_profile

    program = load_program(file=args.file)
    array = args.array or program.arrays[0]
    if args.liveness:
        from repro.viz import render_liveness_profile
        from repro.window.fast import liveness_profile_fast

        print(render_liveness_profile(liveness_profile_fast(program, array)))
        return 0
    if program.nest.depth == 2:
        distances = reuse_distances(program, array) if program.is_uniformly_generated(array) else []
        if distances:
            print(f"reuse region of {array} for distance {distances[0]}:")
            print(render_reuse_region(program.nest, distances[0]))
            print()
    profile = window_profile(program, array)
    print(render_profile_bars(profile.sizes, title=f"window of {array} over time"))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.reporting import render_candidate_table, render_reconciliation
    from repro.transform import journal
    from repro.transform.search import search_best_transformation

    program = _load_target(args.target)
    array = args.array or program.arrays[0]
    observer = obs.get_observer()
    own_observer = observer is None
    if own_observer:
        observer = obs.enable()
    jr = journal.enable()
    try:
        result = search_best_transformation(program, array, bound=args.bound)
    finally:
        journal.disable()
        if own_observer:
            obs.disable()
    counters = observer.summary().get("counters", {})
    print(f"search for array {array} of {program.name} ({result.method}):")
    print(f"best: T={result.transformation.rows} "
          f"est={result.estimated_mws} exact={result.exact_mws}")
    print()
    print(render_candidate_table(jr))
    print()
    reconciliation, ok = render_reconciliation(jr, counters)
    print(reconciliation)
    return 0 if ok else 1


def _cmd_param(args: argparse.Namespace) -> int:
    from repro.estimation.parametric import resolve_parametric, with_trip_counts

    program = _load_target(args.target)
    arrays = [args.array] if args.array else list(program.arrays)
    depth = program.nest.depth
    sizes: list[tuple[int, ...]] = [program.nest.trip_counts]
    if args.sizes:
        sizes = []
        for chunk in args.sizes.split(","):
            trips = tuple(int(v) for v in chunk.lower().split("x"))
            if len(trips) != depth or any(t < 1 for t in trips):
                raise ValueError(
                    f"size {chunk!r} does not fit a depth-{depth} nest"
                )
            sizes.append(trips)
    status = 0
    for array in arrays:
        print(f"array {array}:")
        derived = {}
        for kind in ("mws", "distinct", "reuse"):
            pe = resolve_parametric(
                program, kind, array=array, store=args.store_obj
            )
            derived[kind] = pe
            if pe is None:
                print(f"  {kind:<9}: no closed form (simulation fallback)")
            else:
                provenance = (
                    f"verified on {pe.checked} bound vectors"
                    if pe.checked else "exact by construction"
                )
                print(f"  {kind:<9}: {pe.expr}   "
                      f"[{pe.method}, domain N >= {pe.domain}, {provenance}]")
        header = f"  {'size':>14} {'mws':>10} {'distinct':>10}"
        print(header + ("   check" if args.check else ""))
        for trips in sizes:
            cells = []
            checks = []
            for kind in ("mws", "distinct"):
                pe = derived[kind]
                value = pe.substitute(trips) if pe is not None else None
                cells.append("-" if value is None else str(value))
                if args.check:
                    resized = with_trip_counts(program, trips)
                    if kind == "mws":
                        from repro.window.simulator import max_window_size

                        truth = max_window_size(resized, array)
                    else:
                        from repro.estimation.exact import (
                            exact_distinct_accesses,
                        )

                        truth = exact_distinct_accesses(resized, array)
                    if value is None:
                        checks.append(f"{kind}={truth}(sim)")
                    elif value == truth:
                        checks.append(f"{kind}=ok")
                    else:
                        checks.append(f"{kind}=MISMATCH({truth})")
                        status = 1
            label = "x".join(str(t) for t in trips)
            line = f"  {label:>14} {cells[0]:>10} {cells[1]:>10}"
            if args.check:
                line += "   " + " ".join(checks)
            print(line)
    return status


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json

    from repro.reporting import compare_artifacts, render_comparison

    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    comparison = compare_artifacts(old, new, threshold=args.threshold)
    print(render_comparison(comparison, verbose=args.verbose))
    return 0 if comparison.ok else 1


def _cmd_bench_trend(args: argparse.Namespace) -> int:
    import json

    from repro.reporting import compare_trajectory, render_trend

    paths: list[Path] = []
    for target in args.paths:
        path = Path(target)
        if path.is_dir():
            paths.extend(sorted(path.rglob("BENCH_*.json")))
        else:
            paths.append(path)
    by_bench: dict[str, list[dict]] = {}
    for path in paths:
        artifact = json.loads(path.read_text())
        name = str(artifact.get("bench", path.stem))
        by_bench.setdefault(name, []).append(artifact)
    if not by_bench:
        print("error: no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    status = 0
    for bench in sorted(by_bench):
        report = compare_trajectory(
            by_bench[bench], window=args.window, threshold=args.threshold
        )
        print(render_trend(report, verbose=args.verbose))
        if not report.ok:
            status = 1
    return status


def _resolve_sink_or_fail(args: argparse.Namespace):
    from repro.obs import ledger as obs_ledger

    sink = obs_ledger.resolve_sink(args.store_obj)
    if sink is None:
        print(
            "error: no run ledger (pass --store DIR or set "
            "REPRO_STORE_DIR / REPRO_LEDGER_DIR)",
            file=sys.stderr,
        )
    return sink


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import flight
    from repro.obs import ledger as obs_ledger
    from repro.reporting import (
        diff_runs,
        render_run_diff,
        render_run_record,
        render_runs_table,
    )

    sink = _resolve_sink_or_fail(args)
    if sink is None:
        return 1
    if args.action == "list":
        print(render_runs_table(obs_ledger.list_runs(sink)))
        return 0
    if args.action == "show":
        record = obs_ledger.load_run(sink, args.run)
        if record is None:
            print(f"error: run {args.run!r} not found", file=sys.stderr)
            return 1
        print(render_run_record(record))
        return 0
    if args.action == "diff":
        record_a = obs_ledger.load_run(sink, args.run)
        record_b = obs_ledger.load_run(sink, args.run_b)
        if record_a is None or record_b is None:
            missing = args.run if record_a is None else args.run_b
            print(f"error: run {missing!r} not found", file=sys.stderr)
            return 1
        print(render_run_diff(diff_runs(record_a, record_b)))
        return 0
    # watch: poll the live directory across runs.
    import time as _time

    live = obs_ledger.live_dir_for(sink)
    while True:
        paths = sorted(live.glob("*.jsonl")) if live.is_dir() else []
        if not paths:
            print("no live runs")
        for path in paths:
            summary = flight.progress_summary(flight.read_heartbeats(path))
            print(flight.render_progress(path.stem, summary))
        if args.once:
            return 0
        _time.sleep(args.interval)


def _cmd_tail(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs import flight
    from repro.obs import ledger as obs_ledger

    sink = _resolve_sink_or_fail(args)
    if sink is None:
        return 1
    live = obs_ledger.live_dir_for(sink)
    path = live / f"{args.run}.jsonl"
    if not path.exists() and live.is_dir():
        matches = sorted(live.glob(f"{args.run}*.jsonl"))
        if len(matches) == 1:
            path = matches[0]
        elif len(matches) > 1:
            print(
                f"error: run prefix {args.run!r} is ambiguous: "
                + ", ".join(m.stem for m in matches),
                file=sys.stderr,
            )
            return 1
    if not path.exists():
        print(f"error: no live file for run {args.run!r}", file=sys.stderr)
        return 1
    while True:
        summary = flight.progress_summary(flight.read_heartbeats(path))
        print(flight.render_progress(path.stem, summary))
        if args.once or summary.get("ended"):
            return 0
        _time.sleep(args.interval)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import (
        all_oracles,
        render_check_report,
        replay_file,
        run_check,
    )

    if args.list:
        for oracle in all_oracles():
            print(f"{oracle.name:<34} {oracle.kind:<12} {oracle.paper}")
        return 0
    if args.replay:
        violation = replay_file(args.replay)
        if violation is None:
            print(f"{args.replay}: PASS ({Path(args.replay).name})")
            return 0
        print(f"{args.replay}: FAIL {violation.oracle}")
        print(violation.detail)
        return 1
    report = run_check(
        oracle_names=args.oracle or None,
        seeds=args.seeds,
        time_budget=args.time_budget,
        base_seed=args.base_seed,
        corpus_dir=args.corpus,
        case_timeout=args.timeout,
        do_shrink=not args.no_shrink,
    )
    print(render_check_report(report))
    return 0 if report.ok else 1


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.kernels import KERNELS, kernel_by_name
    from repro.reporting import figure2_row, render_table

    if args.kernel:
        specs = [kernel_by_name(args.kernel)]
    else:
        specs = list(KERNELS)
    rows = [figure2_row(spec, store=args.store_obj) for spec in specs]
    print(render_table(rows))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.reporting import render_cache_stats
    from repro.store import load_manifest, render_batch_table, run_batch

    entries = load_manifest(args.manifest)
    observer = obs.get_observer()
    own_observer = observer is None
    if own_observer:
        observer = obs.enable()
    try:
        report = run_batch(
            entries,
            store=args.store_obj,
            workers=args.workers,
            timeout=args.timeout,
        )
    finally:
        if own_observer:
            obs.disable()
    # stdout carries only the deterministic table (cold and warm runs
    # must be byte-identical); counters and latencies go to stderr.
    print(render_batch_table(report))
    stats = render_cache_stats(observer.summary())
    if stats:
        print(file=sys.stderr)
        print(stats, file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import AnalysisService
    from repro.server import ReproServer

    # A long-lived service wants a real pool: --workers 0 (the global
    # default) resolves to the automatic worker count here, because
    # per-request timeouts need preemptable workers.
    service = AnalysisService(
        store=args.store_obj,
        workers=args.workers or None,
        timeout=args.timeout,
    )
    from repro.server.app import DEFAULT_QUOTA_RATE

    if args.no_quota:
        quota_rate = None
    elif args.quota_rate is None:
        quota_rate = DEFAULT_QUOTA_RATE
    else:
        quota_rate = args.quota_rate
    server = ReproServer(
        service,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        quota_rate=quota_rate,
        quota_burst=args.quota_burst,
        compact_interval=args.compact_interval,
    )
    try:
        return server.run()
    finally:
        service.close()


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from repro.store.maintenance import compact_store, render_compaction

    store = args.store_obj
    if store is None:
        print(
            "error: no store (pass --store DIR or set REPRO_STORE_DIR)",
            file=sys.stderr,
        )
        return 1
    report = compact_store(store, tmp_ttl_s=args.tmp_ttl)
    print(render_compaction(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-requirement analysis of nested loops (DAC 2001 reproduction)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for `batch` (0 = inline) and `serve` "
        "(0 = automatic); other subcommands ignore it",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="record a JSONL observability trace and print a span summary",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="persistent result store directory (default: $REPRO_STORE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="footprints and exact windows")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dependences", help="distance vectors")
    p.add_argument("file")
    p.add_argument("--no-input", action="store_true", help="hide read-read reuse")
    p.set_defaults(func=_cmd_dependences)

    p = sub.add_parser("optimize", help="search the MWS-minimizing transformation")
    p.add_argument("file")
    p.add_argument("--codegen", action="store_true", help="emit transformed source")
    p.add_argument(
        "--hierarchy",
        metavar="PRESET",
        help="also plan tile sizes and tier placements against a "
             "hierarchy preset (tcm, cache, flat)",
    )
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "hierarchy",
        help="simulate a multi-tier memory stack and plan placements",
    )
    p.add_argument("target", help="kernel name (e.g. sor) or loop-nest file")
    p.add_argument(
        "--preset",
        default="tcm",
        help="hierarchy preset: tcm, cache, or flat (default: tcm)",
    )
    p.add_argument(
        "--policy",
        choices=("belady", "lru"),
        default="belady",
        help="per-boundary replacement policy (default: belady)",
    )
    p.add_argument(
        "--no-search",
        action="store_true",
        help="skip the joint tile/placement search, print the simulation only",
    )
    p.add_argument(
        "--native",
        action="store_true",
        help="search tile/placement for the native order only (skip the "
             "transformation sweep; much faster on deep or large nests)",
    )
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("size", help="provision an on-chip buffer")
    p.add_argument("file")
    p.add_argument("--optimized", action="store_true", help="size after optimization")
    p.set_defaults(func=_cmd_size)

    p = sub.add_parser("buffer", help="fold an array into a modulo window buffer")
    p.add_argument("file")
    p.add_argument("--array", help="array name (default: first referenced)")
    p.add_argument("--optimized", action="store_true", help="allocate after the MWS search")
    p.set_defaults(func=_cmd_buffer)

    p = sub.add_parser("distribute", help="split the nest into a legal sequence")
    p.add_argument("file")
    p.set_defaults(func=_cmd_distribute)

    p = sub.add_parser("viz", help="reuse region and window profile (ASCII)")
    p.add_argument("file")
    p.add_argument("--array", help="array name (default: first referenced)")
    p.add_argument(
        "--liveness",
        action="store_true",
        help="render the liveness profile (occupancy, peak, reuse distances)",
    )
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser(
        "explain",
        help="explain the search: ranked candidates, rejections, prunes",
    )
    p.add_argument("target", help="kernel name (e.g. sor) or loop-nest file")
    p.add_argument("--array", help="array name (default: first referenced)")
    p.add_argument("--bound", type=int, default=6, help="candidate entry bound")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "param",
        help="derive closed-form MWS/distinct expressions in the loop "
             "bounds and substitute concrete sizes",
    )
    p.add_argument("target", help="kernel name (e.g. sor) or loop-nest file")
    p.add_argument("--array", help="array name (default: all referenced)")
    p.add_argument(
        "--sizes",
        metavar="N1xN2,...",
        help="comma-separated trip-count vectors to substitute "
             "(default: the program's own bounds)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="verify every substituted value against the exact engines "
             "(exit 1 on mismatch)",
    )
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser(
        "bench-compare",
        help="diff two BENCH_<name>.json artifacts; exit 1 on regression",
    )
    p.add_argument("old", help="baseline artifact (BENCH_<name>.json)")
    p.add_argument("new", help="candidate artifact to compare against it")
    p.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative slack before a bad-direction change is a regression",
    )
    p.add_argument(
        "--verbose", action="store_true", help="also list unchanged metrics"
    )
    p.set_defaults(func=_cmd_bench_compare)

    p = sub.add_parser(
        "bench-trend",
        help="trend-check BENCH_<name>.json trajectories; exit 1 when a "
             "metric drifts monotonically past the threshold",
    )
    p.add_argument(
        "paths", nargs="+",
        help="artifact files and/or directories (searched recursively)",
    )
    p.add_argument(
        "--window", type=int, default=3,
        help="number of trailing points a drift must span (default 3)",
    )
    p.add_argument(
        "--threshold", type=float, default=0.2,
        help="total relative change over the window that fails (default 0.2)",
    )
    p.add_argument(
        "--verbose", action="store_true", help="also list non-drifting metrics"
    )
    p.set_defaults(func=_cmd_bench_trend)

    p = sub.add_parser(
        "runs",
        help="run ledger: list, inspect, and diff recorded analysis runs",
    )
    runs_sub = p.add_subparsers(dest="action", required=True)
    q = runs_sub.add_parser("list", help="every recorded run, oldest first")
    q.set_defaults(func=_cmd_runs)
    q = runs_sub.add_parser("show", help="one run's full ledger record")
    q.add_argument(
        "run", nargs="?", default="last",
        help="run ID, unique prefix, 'last', or 'last~N' (default: last)",
    )
    q.set_defaults(func=_cmd_runs)
    q = runs_sub.add_parser(
        "diff", help="explain why two runs differ (code, knobs, cache state)"
    )
    q.add_argument(
        "run", nargs="?", default="last~1",
        help="baseline run (default: last~1)",
    )
    q.add_argument(
        "run_b", nargs="?", default="last",
        help="run to compare against it (default: last)",
    )
    q.set_defaults(func=_cmd_runs)
    q = runs_sub.add_parser("watch", help="live progress across active runs")
    q.add_argument("--once", action="store_true", help="render once and exit")
    q.add_argument(
        "--interval", type=float, default=2.0,
        help="poll period in seconds (default 2)",
    )
    q.set_defaults(func=_cmd_runs)

    p = sub.add_parser(
        "tail", help="follow one run's flight-recorder heartbeats"
    )
    p.add_argument("run", help="run ID (or unique prefix) to follow")
    p.add_argument("--once", action="store_true", help="render once and exit")
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="poll period in seconds (default 1)",
    )
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser(
        "check",
        help="fuzz the conformance oracles; shrink failures into the corpus",
    )
    p.add_argument(
        "--seeds", type=int, metavar="N",
        help="fuzz N seeds per oracle (default 100 unless --time-budget)",
    )
    p.add_argument(
        "--time-budget", type=float, metavar="S",
        help="stop after S wall-clock seconds (combines with --seeds)",
    )
    p.add_argument(
        "--oracle", action="append", metavar="NAME",
        help="restrict to one oracle (repeatable; default: all)",
    )
    p.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the fuzzed range (default 0)",
    )
    p.add_argument(
        "--corpus", metavar="DIR",
        help="write shrunk counterexamples into DIR (e.g. tests/corpus)",
    )
    p.add_argument(
        "--timeout", type=float, default=10.0, metavar="S",
        help="per-case wall-clock timeout in seconds (default 10)",
    )
    p.add_argument(
        "--no-shrink", action="store_true",
        help="record failures without minimizing them",
    )
    p.add_argument(
        "--replay", metavar="FILE",
        help="replay one corpus JSON file and exit (1 if it still fails)",
    )
    p.add_argument(
        "--list", action="store_true", help="list registered oracles and exit"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("figure2", help="regenerate the paper's results table")
    p.add_argument("--kernel", help="one kernel only (e.g. sor)")
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser(
        "batch",
        help="batch-evaluate a JSON manifest of kernels/searches "
             "(dedup + store-warm re-runs; see docs/observability.md)",
    )
    p.add_argument("manifest", help="JSON manifest of work items")
    p.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="per-item timeout in seconds (needs --workers >= 1)",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "serve",
        help="always-on HTTP/JSON analysis service over the worker pool "
             "(admission control, per-tenant quotas; see docs/service.md)",
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p.add_argument(
        "--port", type=int, default=8787,
        help="bind port; 0 picks an ephemeral port (default 8787)",
    )
    p.add_argument(
        "--timeout", type=float, metavar="S",
        help="default per-request timeout in seconds (a hung request is "
             "answered 504 and its worker slot is reclaimed)",
    )
    p.add_argument(
        "--queue-limit", type=int, metavar="N",
        help="admitted requests beyond the worker count before 429s "
             "(default: 2x workers)",
    )
    p.add_argument(
        "--quota-rate", type=float, default=None, metavar="R",
        help="per-tenant token-bucket refill rate in requests/second "
             "(default 50; X-Repro-Tenant header keys the bucket)",
    )
    p.add_argument(
        "--quota-burst", type=float, metavar="B",
        help="per-tenant burst ceiling (default: 2x the rate)",
    )
    p.add_argument(
        "--no-quota", action="store_true",
        help="disable per-tenant quotas entirely",
    )
    p.add_argument(
        "--compact-interval", type=float, metavar="S",
        help="run the store compaction sweep every S seconds in the "
             "background (default: off)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "store-compact",
        help="sweep the result store: delete corrupt records, rewrite "
             "legacy ledger counters, remove stale temp files",
    )
    p.add_argument(
        "--tmp-ttl", type=float, default=3600.0, metavar="S",
        help="age in seconds before an orphaned temp file is removed "
             "(default 3600)",
    )
    p.set_defaults(func=_cmd_store_compact)

    return parser


#: Read-side subcommands that must not write ledger records of their own
#: (``repro runs list`` sealing a run per invocation would fill the
#: ledger with records about reading the ledger).
_UNLEDGERED = ("runs", "tail", "bench-compare", "bench-trend")


def main(argv: list[str] | None = None) -> int:
    from repro.obs import ledger as obs_ledger
    from repro.obs import runctx
    from repro.store import open_store

    parser = build_parser()
    args = parser.parse_args(argv)
    args.store_obj = open_store(args.store)

    # Run ledger: every analysis command with a durable sink (the store,
    # or $REPRO_LEDGER_DIR) runs under a run context and seals exactly
    # one record on the way out.
    sink = None
    if args.command not in _UNLEDGERED:
        sink = obs_ledger.resolve_sink(args.store_obj)
    ctx = None
    tee = None
    own_observer = False
    if sink is not None:
        ctx = runctx.begin_run(
            args.command,
            argv=list(sys.argv[1:]) if argv is None else list(argv),
            config={
                "workers": args.workers,
                "store": str(args.store_obj.root) if args.store_obj else None,
                "trace": args.trace,
            },
            live_dir=obs_ledger.live_dir_for(sink),
        )
        tee = obs_ledger.DigestTee(sys.stdout)
        sys.stdout = tee
    if args.trace:
        obs.enable(trace=args.trace)
    elif ctx is not None and obs.get_observer() is None:
        # The ledger needs counter/span totals even without --trace; the
        # in-memory observer is cheap and the subcommands reuse it.
        obs.enable()
        own_observer = True
    status = 1
    try:
        status = args.func(args)
        return status
    except (
        ParseError, FileNotFoundError, KeyError, ValueError, IndexError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tee is not None:
            sys.stdout = tee.wrapped
        if ctx is not None:
            observer = obs.get_observer()
            summary = observer.summary() if observer is not None else None
            obs_ledger.heartbeat_run_end(status)
            runctx.end_run()
            obs_ledger.seal_run(
                ctx, summary, sink, status=status,
                result_digest=tee.hexdigest(),
            )
        if own_observer:
            obs.disable()
        if args.trace:
            from repro.reporting import render_cache_stats, render_span_summary

            observer = obs.disable()
            if observer is not None:
                summary = observer.summary()
                print(file=sys.stderr)
                print(f"trace written to {args.trace}", file=sys.stderr)
                print(render_span_summary(summary), file=sys.stderr)
                stats = render_cache_stats(summary)
                if stats:
                    print(file=sys.stderr)
                    print(stats, file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
