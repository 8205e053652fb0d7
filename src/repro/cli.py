"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro list                 # available experiments
    python -m repro table2               # one experiment
    python -m repro fig7 --kernel lu     # one kernel family panel
    python -m repro fig7 --jobs 8        # same sweep over 8 workers
    python -m repro all --fast           # everything, reduced sweeps
    python -m repro campaign             # fig6+fig7 sweeps, cached on disk

Figures 6-9 accept ``--kernel {cholesky,qr,lu,all}`` and ``--full`` for
the paper's complete N = 4..64 sweep (slow: the online DualHP
reassignment is expensive at large N).  The campaign-backed sweeps
(figures 6-9) also honour ``--jobs N`` (default: all CPU cores;
``--jobs 1`` is the bit-for-bit serial reference path).

``campaign`` drives the sweeps through the cache-backed engine
(:mod:`repro.campaign`): results are stored content-addressed under
``--cache-dir`` (default ``.repro-cache``), so a warm re-run completes
without executing a single simulation.  ``--refresh`` clears the cache
first; ``--no-cache`` disables it for the run.  Cache misses run
inline at ``--jobs 1`` and over the work-stealing fabric
(:mod:`repro.campaign.backends`) above, bit-identical at any
``--jobs``.  ``--backend serial`` is a spelling of ``--jobs 1``;
``--backend auto`` and ``--backend work-stealing`` leave ``--jobs``
alone.

``cache`` inspects and maintains the result cache: by default it
prints entry/byte counts per tier, ``--prune`` evicts least-recently
used disk entries down to ``--max-bytes``/``--max-entries``, and
``--gc`` deletes entries whose salt no longer matches the current
code (stale closures that selective invalidation has re-keyed) from
the root cache, every ``repro serve`` tenant cache under it and the
compiled-graph store.

``bench`` runs the perf harness (:mod:`repro.bench`) and prints its
report; ``--json FILE`` also writes it (the committed baseline is
``BENCH_simcore.json``); ``--quick`` selects the CI smoke subset, and
``--baseline FILE`` fails the run when a case's calibration-normalized
events/sec falls more than 30% below a committed report.  Any
invocation accepts ``--profile`` to wrap the run in ``cProfile`` and
print the top cumulative-time hotspots.

``lint`` runs the determinism linter (:mod:`repro.analysis`) over the
tree; ``--cache-gate`` additionally verifies that the committed
``analysis/fingerprints.json`` salt manifest describes the tree, and
``--write-fingerprints`` regenerates it after a salted-module edit.

``analyze`` runs the whole-program flow checks
(:mod:`repro.analysis.flow`): determinism taint into cache-keyed
results, call-graph verification of the executor-derived salt closures, and the
async/fork concurrency lint pack.  Both ``lint`` and ``analyze``
accept ``--format json`` for canonical machine-readable reports.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.workloads import DEFAULT_N_VALUES, FULL_N_VALUES

__all__ = ["main"]

_KERNEL_EXPERIMENTS = {"fig6", "fig7", "fig8", "fig9"}
_CAMPAIGN_EXPERIMENTS = _KERNEL_EXPERIMENTS  # sweeps routed through repro.campaign
_CAMPAIGN_DEFAULT_TARGETS = ("fig6", "fig7")
_FAST_N_VALUES: tuple[int, ...] = (4, 8, 12, 16)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the HeteroPrio paper (IPDPS 2017).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS)
        + [
            "all",
            "list",
            "campaign",
            "cache",
            "bench",
            "lint",
            "analyze",
            "serve",
            "submit",
        ],
        help="experiment id (paper table/figure), 'all', 'list', 'campaign', "
        "'cache', 'bench', 'lint', 'analyze', 'serve', or 'submit'",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="wrap the run in cProfile and print the top hotspots "
        "by cumulative time",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="number of profile rows to print with --profile (default: 25)",
    )
    parser.add_argument(
        "--kernel",
        choices=["cholesky", "qr", "lu", "all"],
        default="all",
        help="kernel family for figures 6-9 (default: all)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced sweeps (N <= 16) for a quick smoke run",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="the paper's full N = 4..64 sweep (slow)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for campaign-backed sweeps "
        "(default: all CPU cores; 1 = serial)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each experiment's output to DIR/<name>.txt",
    )
    campaign = parser.add_argument_group("campaign options")
    campaign.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=".repro-cache",
        help="campaign result cache directory (default: .repro-cache)",
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="run the campaign without the on-disk result cache",
    )
    campaign.add_argument(
        "--refresh",
        action="store_true",
        help="clear the result cache before running",
    )
    campaign.add_argument(
        "--backend",
        choices=["auto", "serial", "work-stealing"],
        default="auto",
        help="serial = --jobs 1; auto (default) and work-stealing leave "
        "--jobs alone (misses run inline at one job, over the "
        "work-stealing fabric above)",
    )
    campaign.add_argument(
        "--targets",
        metavar="IDS",
        default=",".join(_CAMPAIGN_DEFAULT_TARGETS),
        help="comma-separated campaign experiments "
        f"(subset of {sorted(_CAMPAIGN_EXPERIMENTS)}; default: fig6,fig7)",
    )
    cache_group = parser.add_argument_group("cache options")
    cache_group.add_argument(
        "--prune",
        action="store_true",
        help="cache: evict least-recently-used disk entries down to "
        "--max-bytes / --max-entries",
    )
    cache_group.add_argument(
        "--gc",
        action="store_true",
        help="cache: delete entries and compiled graphs whose salt no "
        "longer matches the current code (root, tenant and graph stores)",
    )
    cache_group.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="cache --prune: keep the disk tier under N bytes",
    )
    cache_group.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="cache --prune: keep at most N disk entries",
    )
    service = parser.add_argument_group("service options (serve/submit/campaign)")
    service.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="campaign/submit: a serialized ScheduleRequest or BatchRequest "
        "JSON file (validated via repro.service.models — the same code "
        "path the server uses)",
    )
    service.add_argument(
        "--host",
        metavar="ADDR",
        default="127.0.0.1",
        help="serve: bind address; submit: server address (default: 127.0.0.1)",
    )
    service.add_argument(
        "--port",
        type=int,
        default=8080,
        metavar="N",
        help="serve: listen port (0 = ephemeral); submit: server port "
        "(default: 8080)",
    )
    service.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        metavar="N",
        help="serve: max live jobs before submits get 429 (default: 64)",
    )
    service.add_argument(
        "--concurrency",
        type=int,
        default=4,
        metavar="N",
        help="serve: concurrent jobs drained from the queue (default: 4)",
    )
    service.add_argument(
        "--pool-workers",
        type=int,
        default=0,
        metavar="N",
        help="serve: multiprocessing pool size for simulations "
        "(default: 0 = run inline in the server process)",
    )
    bench = parser.add_argument_group("bench options")
    bench.add_argument(
        "--quick",
        action="store_true",
        help="bench: run the small CI smoke subset instead of the full suite",
    )
    bench.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="bench: also write the JSON report here (default: print only; "
        "'-' also skips writing)",
    )
    bench.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="bench: committed baseline report to regression-check against",
    )
    lint = parser.add_argument_group("lint options")
    lint.add_argument(
        "--cache-gate",
        action="store_true",
        help="lint: also verify analysis/fingerprints.json against the tree "
        "(fails on a stale manifest; regenerate it with --write-fingerprints)",
    )
    lint.add_argument(
        "--write-fingerprints",
        action="store_true",
        help="lint: regenerate analysis/fingerprints.json for the current "
        "CODE_VERSION and exit",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="lint: print the rule catalog and suppression syntax",
    )
    lint.add_argument(
        "--paths",
        metavar="PATHS",
        default=None,
        help="lint: comma-separated files/directories to check "
        "(default: src,examples,benchmarks)",
    )
    lint.add_argument(
        "--root",
        metavar="DIR",
        default=".",
        help="lint: repository root (default: current directory)",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="lint: also list suppressed findings with their reasons",
    )
    lint.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="lint/analyze: output format — 'json' emits one canonical "
        "(sorted, byte-stable) JSON document for CI annotations",
    )
    return parser


def _n_values(args: argparse.Namespace) -> tuple[int, ...]:
    if args.full:
        return FULL_N_VALUES
    if args.fast:
        return _FAST_N_VALUES
    return DEFAULT_N_VALUES


def _run_one(name: str, args: argparse.Namespace, *, cache=None) -> list:
    module = ALL_EXPERIMENTS[name]
    if name in _KERNEL_EXPERIMENTS:
        kernels = ("cholesky", "qr", "lu") if args.kernel == "all" else (args.kernel,)
        return [
            module.run(kernel, n_values=_n_values(args), jobs=args.jobs, cache=cache)
            for kernel in kernels
        ]
    if name == "table2" and args.fast:
        return [module.run(m_cpus=16, granularity=16, k=2)]
    if name == "fig5" and args.fast:
        return [module.run(k_values=(1, 2))]
    if name == "comm" and args.fast:
        return [module.run(n_tiles=8, scales=(0.0, 1.0, 2.0))]
    if name == "robustness" and args.fast:
        return [module.run(n_tiles=8, seeds=(1, 2))]
    return [module.run()]


def _run_campaign_spec(args: argparse.Namespace, cache) -> int:
    """``repro campaign --spec``: run a serialized service request.

    The file is validated through :mod:`repro.service.models` — the
    exact code path the server uses — so a spec that passes here is a
    spec the service will accept, and vice versa.  Results land in the
    same per-tenant cache namespaces the server reads.
    """
    from repro.campaign import encode_value, run_campaign
    from repro.io import canonical_dumps
    from repro.service.dispatch import namespaced_cache
    from repro.service.models import BatchRequest, ValidationError, load_request_file

    try:
        request = load_request_file(args.spec)
    except ValidationError as exc:
        for problem in exc.errors:
            print(f"[campaign] invalid spec: {problem}", file=sys.stderr)
        return 2
    requests = (
        request.requests if isinstance(request, BatchRequest) else (request,)
    )
    groups: dict[str, list] = {}
    for item in requests:
        groups.setdefault(item.tenant, []).append(item.to_instance_spec())
    for tenant in sorted(groups):
        tenant_cache = None if cache is None else namespaced_cache(cache, tenant)
        outcome = run_campaign(groups[tenant], jobs=args.jobs, cache=tenant_cache)
        label = f" [tenant {tenant}]" if tenant else ""
        for record in outcome.records:
            print(
                f"{record.spec.label()}{label}: "
                + canonical_dumps(encode_value(record.metrics))
            )
        print(f"[campaign]{label} {outcome.stats.summary()}", file=sys.stderr)
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    """The ``repro campaign`` subcommand: cached, parallel figure sweeps."""
    from repro.campaign import ResultCache
    from repro.experiments.dags import clear_cache

    targets = [t for t in args.targets.split(",") if t]
    unknown = sorted(set(targets) - _CAMPAIGN_EXPERIMENTS)
    if unknown:
        print(
            f"unknown campaign targets {unknown}; "
            f"expected a subset of {sorted(_CAMPAIGN_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
        if args.refresh:
            removed = cache.clear()
            print(f"[campaign] cleared {removed} cached entries", file=sys.stderr)
    # The in-process sweep memo would mask the cache for repeated panels;
    # campaign runs report true hit/miss counts instead.
    clear_cache()

    if args.spec is not None:
        return _run_campaign_spec(args, cache)

    started = time.perf_counter()
    totals = {"total": 0, "hits": 0, "executed": 0, "exec_s": 0.0}
    for name in targets:
        for result in _run_one(name, args, cache=cache):
            print(result.render())
            stats = result.data.get("campaign_stats")
            if stats is not None:
                print(f"[campaign] {name}: {stats.summary()}", file=sys.stderr)
                totals["total"] += stats.total
                totals["hits"] += stats.hits
                totals["executed"] += stats.executed
                totals["exec_s"] += stats.exec_s
            print()
    wall = time.perf_counter() - started
    print(
        f"[campaign] totals: {totals['total']} instances, "
        f"{totals['hits']} cache hits, {totals['executed']} executed, "
        f"sim {totals['exec_s']:.2f}s, wall {wall:.2f}s"
        + (f"; cache at {cache.root}" if cache is not None else ""),
        file=sys.stderr,
    )
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """The ``repro cache`` subcommand: inspect / prune / gc the result cache."""
    from pathlib import Path

    from repro.campaign import ResultCache
    from repro.campaign.cache import MEMORY_ENTRIES
    from repro.campaign.graph_store import GraphStore

    root = Path(args.cache_dir)
    if not root.is_dir():
        print(f"[cache] no cache at {root}", file=sys.stderr)
        return 0 if not (args.prune or args.gc) else 2
    cache = ResultCache(root)
    tenants = sorted(
        p.name for p in (root / "tenants").iterdir() if p.is_dir()
    ) if (root / "tenants").is_dir() else []
    acted = False
    if args.gc:
        # Every store under the root: results, each `repro serve`
        # tenant's results, and the compiled graphs.
        removed = cache.gc()
        tenant_removed = sum(
            ResultCache(root / "tenants" / tenant, salt=cache.salt).gc()
            for tenant in tenants
        )
        graphs = root / "graphs"
        graphs_removed = (
            GraphStore(graphs, salt=cache.salt).gc() if graphs.is_dir() else 0
        )
        print(
            f"[cache] gc: removed {removed} stale-salt entries, "
            f"{tenant_removed} from tenant caches, {graphs_removed} stale graphs"
        )
        acted = True
    if args.prune:
        if args.max_bytes is None and args.max_entries is None:
            print(
                "[cache] --prune needs --max-bytes and/or --max-entries",
                file=sys.stderr,
            )
            return 2
        removed = cache.prune(
            max_bytes=args.max_bytes, max_entries=args.max_entries
        )
        print(f"[cache] prune: evicted {removed} least-recently-used entries")
        acted = True
    entries, size = cache.disk_usage()
    print(
        f"[cache] {root}: {entries} disk entries, {size} bytes "
        f"(salt {cache.salt}; memory tier capacity "
        f"{MEMORY_ENTRIES} entries per process)"
    )
    for tenant in tenants:
        t_entries, t_size = ResultCache(root / "tenants" / tenant).disk_usage()
        print(f"[cache]   tenant {tenant}: {t_entries} entries, {t_size} bytes")
    if not acted and (args.max_bytes is not None or args.max_entries is not None):
        print(
            "[cache] note: --max-bytes/--max-entries have no effect "
            "without --prune",
            file=sys.stderr,
        )
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """The ``repro bench`` subcommand: the perf harness."""
    from repro import bench

    return bench.main(
        quick=args.quick,
        out=None if args.json in (None, "-") else args.json,
        baseline=args.baseline,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        args.profile = False  # run the real body below, unprofiled branch
        profiler.enable()
        try:
            return main_dispatch(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(args.profile_top)
    return main_dispatch(args)


def main_dispatch(args: argparse.Namespace) -> int:
    """Dispatch an already-parsed invocation (separated for --profile)."""
    if args.backend == "serial":
        args.jobs = 1
    if args.experiment == "list":
        for name, module in sorted(ALL_EXPERIMENTS.items()):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0
    if args.experiment == "campaign":
        return _run_campaign(args)
    if args.experiment == "cache":
        return _run_cache(args)
    if args.experiment == "bench":
        return _run_bench(args)
    if args.experiment == "serve":
        from repro.service.cli import run_serve

        return run_serve(
            host=args.host,
            port=args.port,
            cache_dir=None if args.no_cache else args.cache_dir,
            capacity=args.queue_capacity,
            concurrency=args.concurrency,
            workers=args.pool_workers,
        )
    if args.experiment == "submit":
        if args.spec is None:
            print("repro submit requires --spec FILE", file=sys.stderr)
            return 2
        from repro.service.cli import run_submit

        return run_submit(spec=args.spec, host=args.host, port=args.port)
    if args.experiment == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(
            root=args.root,
            paths=None if args.paths is None else [
                p for p in args.paths.split(",") if p
            ],
            cache_gate=args.cache_gate,
            write_fingerprints=args.write_fingerprints,
            list_rules=args.list_rules,
            show_suppressed=args.show_suppressed,
            output_format=args.output_format,
        )
    if args.experiment == "analyze":
        from repro.analysis.cli import run_analyze

        return run_analyze(
            root=args.root,
            show_suppressed=args.show_suppressed,
            output_format=args.output_format,
        )
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    out_dir = None
    if args.out is not None:
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        started = time.perf_counter()
        renders = []
        for result in _run_one(name, args):
            text = result.render()
            renders.append(text)
            print(text)
            print()
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text("\n\n".join(renders) + "\n")
        elapsed = time.perf_counter() - started
        print(f"[{name} done in {elapsed:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
