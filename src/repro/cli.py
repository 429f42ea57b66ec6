"""Command-line interface for the reproduction toolkit.

Subcommands mirror how the paper's artefacts are used:

* ``simulate`` — build a world, run the hitlist pipeline, publish the
  responsive/aliased files and a text report into an output directory;
* ``evaluate`` — additionally run the Sec. 6 new-source evaluation;
* ``generate`` — run one target generation algorithm over a seed file;
* ``aggregate`` — aggregate a prefix list (drop nested, merge siblings);
* ``serve`` — serve a publication snapshot store (``--publish-dir``)
  over HTTP: full artifacts, deltas, prefix/ASN queries, ``/metrics``,
  with a selectable backend (``--backend asyncio|prefork|thread``);
* ``config`` — dump a scenario configuration as JSON for editing.

Run ``python -m repro.cli --help`` for details.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.analysis.figures_csv import export_all_figures
from repro.analysis.report import full_report
from repro.analysis.validation import validate_run
from repro.hitlist import HitlistService, default_scan_days
from repro.hitlist.export import (
    read_address_list,
    write_address_list,
    write_aliased_prefixes,
)
from repro.hitlist.history_io import save_history_summary
from repro.hitlist.service import ServiceSettings
from repro.net.aggregate import merge_adjacent
from repro.net.prefix import IPv6Prefix
from repro.simnet import build_internet, default_config, small_config
from repro.simnet.config_io import load_config, save_config
from repro.tga import (
    DistanceClustering,
    EntropyIp,
    SixGan,
    SixGcVae,
    SixGraph,
    SixHit,
    SixTree,
    SixVecLm,
    evaluate_new_sources,
)
from repro.tga.evaluation import default_generators

_GENERATORS = {
    "6tree": SixTree,
    "6graph": SixGraph,
    "6gan": SixGan,
    "6veclm": SixVecLm,
    "6gcvae": SixGcVae,
    "6hit": SixHit,
    "distance-clustering": DistanceClustering,
    "entropy-ip": EntropyIp,
}


def _resolve_scenario_context(args: argparse.Namespace):
    """The expanded-scenario context behind ``--config``, if any.

    When ``--config`` points at an expanded-scenario artifact (the
    output of ``repro-cli scenario expand``), the run inherits the
    scenario's settings overrides, fault plan and run schedule — not
    just its world config.  ``--seed`` applies *after* expansion and is
    recorded in the artifact's provenance (``seed_override``).
    """
    path = getattr(args, "config", None)
    if not path:
        return None
    import json

    from repro.scenario.artifact import artifact_from_dict, is_expanded_artifact

    with open(path, "r", encoding="ascii") as handle:
        data = json.load(handle)
    if not is_expanded_artifact(data):
        return None
    expanded = artifact_from_dict(data)
    if getattr(args, "seed", None) is not None:
        expanded = expanded.with_seed(args.seed)
    return expanded


def _resolve_config(args: argparse.Namespace):
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="ascii") as handle:
            config = load_config(handle)
    else:
        preset = getattr(args, "preset", "small")
        if preset == "default":
            config = default_config()
        else:
            config = small_config()
    # the seed override applies last — after any file/scenario loading —
    # so `--config expanded.json --seed N` reproduces under seed N
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    return config


def _scan_days(args: argparse.Namespace, config, run=None) -> List[int]:
    """The scan schedule: CLI flags override the scenario's ``run:``."""
    until = (
        getattr(args, "days", None)
        or (run or {}).get("days")
        or config.final_day
    )
    step = getattr(args, "interval", None) or (run or {}).get("interval")
    if step:
        return list(range(0, until + 1, step))
    return [day for day in default_scan_days(config.final_day) if day <= until]


def _parse_vantage_faults(spec: str):
    """``'vp1:10-20,vp2:14-18'`` -> scoped outage entries."""
    from repro.runtime.faults import VantageOutage

    entries = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            vid, _, window = token.rpartition(":")
            start, _, end = window.partition("-")
            if not vid:
                raise ValueError(token)
            entries.append(VantageOutage(
                start_day=int(start), end_day=int(end), vantage=vid,
            ))
        except ValueError:
            raise SystemExit(
                f"--vantage-faults: cannot parse {token!r}; "
                f"expected 'vid:START-END'"
            )
    return tuple(entries)


def _load_faults(args: argparse.Namespace, base=None):
    """The run's fault plan: ``--faults`` replaces a scenario's plan
    (``base``); ``--vantage-faults`` merges into whichever is active."""
    path = getattr(args, "faults", None)
    plan = base
    if path:
        from repro.runtime import load_fault_plan

        with open(path, "r", encoding="ascii") as handle:
            plan = load_fault_plan(handle)
    extra = getattr(args, "vantage_faults", None)
    if extra:
        from repro.runtime.faults import FaultPlan

        entries = _parse_vantage_faults(extra)
        if plan is None:
            plan = FaultPlan(outages=entries)
        else:
            plan = dataclasses.replace(plan, outages=plan.outages + entries)
        # round-trip through the validating decoder so overlapping or
        # out-of-range windows fail here, not three stages into a run
        plan = FaultPlan.from_dict(plan.to_dict())
    return plan


def _run_pipeline(args: argparse.Namespace):
    resume_path = getattr(args, "resume", None)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    checkpoint_every = getattr(args, "checkpoint_every", None) or (
        1 if checkpoint_dir else None
    )
    if checkpoint_dir:
        pathlib.Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    publish_dir = getattr(args, "publish_dir", None)
    if resume_path:
        # config, settings and fault plan come from the checkpoint
        service = HitlistService.resume(resume_path)
        history = service.run(
            checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_dir,
            publish_dir=publish_dir,
        )
        return service.config, service.internet, history, service
    context = _resolve_scenario_context(args)
    if context is not None:
        # scenario-context run: the artifact's config/settings/faults/run
        # are the baseline
        config = context.config
        settings = context.settings()
        fault_plan = _load_faults(args, base=context.fault_plan)
        scan_days = _scan_days(args, config, run=context.run)
    else:
        config = _resolve_config(args)
        settings = ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day
        )
        fault_plan = _load_faults(args)
        scan_days = _scan_days(args, config)
    # explicit CLI flags override the baseline; an omitted flag keeps
    # the baseline's value (the ServiceSettings default outside a
    # scenario context)
    overrides = {}
    for attr in ("retry_attempts", "scan_workers", "scan_chunk_size",
                 "vantages", "quorum", "scan_mode", "refresh_interval",
                 "sample_rate"):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[attr] = value
    settings = dataclasses.replace(settings, **overrides)
    internet = build_internet(config)
    service = HitlistService(
        internet, config, settings=settings, fault_plan=fault_plan
    )
    history = service.run(
        scan_days,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_dir,
        publish_dir=publish_dir,
    )
    return config, internet, history, service


def _write_observability(args: argparse.Namespace, service) -> None:
    """Honor the --metrics-json / --metrics-prom / --trace flags."""
    from repro.obs import (
        deterministic_metrics,
        metrics_to_json,
        registry_to_dict,
        to_prometheus_text,
    )

    metrics_json = getattr(args, "metrics_json", None)
    if metrics_json:
        # deterministic view only: byte-identical across same-seed runs
        # and kill-and-resume, so files can be diffed directly
        document = deterministic_metrics(registry_to_dict(service.metrics))
        pathlib.Path(metrics_json).write_text(metrics_to_json(document))
        print(f"wrote metrics (deterministic view) to {metrics_json}")
    metrics_prom = getattr(args, "metrics_prom", None)
    if metrics_prom:
        pathlib.Path(metrics_prom).write_text(
            to_prometheus_text(service.metrics)
        )
        print(f"wrote Prometheus exposition to {metrics_prom}")
    trace_path = getattr(args, "trace", None)
    if trace_path:
        import json as _json

        pathlib.Path(trace_path).write_text(
            _json.dumps(service.spans.to_json(), indent=2) + "\n"
        )
        print(f"wrote stage trace to {trace_path}")


def _write_run_outputs(outdir: pathlib.Path, config, internet, history):
    """Publish a finished campaign's artefacts into ``outdir``.

    Shared by ``simulate``/``pipeline`` and ``scenario run`` so every
    run directory has the same layout: responsive.txt,
    aliased-prefixes.txt, report.txt, scenario.json, figures/,
    validation.txt and summary.json.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "responsive.txt", "w", encoding="ascii") as handle:
        count = write_address_list(handle, history.final.cleaned_any())
    with open(outdir / "aliased-prefixes.txt", "w", encoding="ascii") as handle:
        aliased = write_aliased_prefixes(
            handle, (alias.prefix for alias in history.final.aliased_prefixes)
        )
    report = full_report(history)
    (outdir / "report.txt").write_text(report)
    with open(outdir / "scenario.json", "w", encoding="ascii") as handle:
        save_config(config, handle)
    rib = internet.routing.snapshot_at(max(history.retained))
    export_all_figures(outdir / "figures", history, rib)
    validation = validate_run(history)
    (outdir / "validation.txt").write_text(validation.render() + "\n")
    with open(outdir / "summary.json", "w", encoding="ascii") as handle:
        save_history_summary(history, handle)
    return count, aliased, validation


def cmd_simulate(args: argparse.Namespace) -> int:
    config, internet, history, service = _run_pipeline(args)
    outdir = pathlib.Path(args.output)
    count, aliased, validation = _write_run_outputs(
        outdir, config, internet, history
    )
    _write_observability(args, service)
    print(f"wrote {count} responsive addresses, {aliased} aliased prefixes, "
          f"report.txt, figures/, validation.txt and scenario.json to {outdir}")
    if not validation.passed:
        print(f"validation: {len(validation.failures)} check(s) failed")
        if args.strict:
            return 1
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, internet, history, service = _run_pipeline(args)
    seeds_day = max(history.retained)
    evaluation = evaluate_new_sources(
        internet, history, config,
        generators=default_generators(config),
        seeds_day=seeds_day,
        scan_days=[seeds_day + 1, seeds_day + 8],
    )
    outdir = pathlib.Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    report = full_report(history, evaluation)
    (outdir / "report.txt").write_text(report)
    with open(outdir / "new-responsive.txt", "w", encoding="ascii") as handle:
        count = write_address_list(handle, evaluation.combined_any())
    rib = internet.routing.snapshot_at(max(history.retained))
    export_all_figures(outdir / "figures", history, rib, evaluation)
    _write_observability(args, service)
    print(f"wrote report.txt, figures/ and {count} new responsive addresses "
          f"to {outdir}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    generator_cls = _GENERATORS[args.algorithm]
    generator = generator_cls(budget=args.budget)
    with open(args.seeds, "r", encoding="ascii") as handle:
        seeds = sorted(read_address_list(handle))
    if not seeds:
        print("seed file contains no addresses", file=sys.stderr)
        return 1
    result = generator.generate(seeds)
    with open(args.output, "w", encoding="ascii") as handle:
        count = write_address_list(handle, result.candidates)
    print(f"{generator.name}: {len(seeds)} seeds -> {count} candidates "
          f"({args.output})")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    with open(args.prefixes, "r", encoding="ascii") as handle:
        prefixes = [
            IPv6Prefix.from_string(line.strip())
            for line in handle
            if line.strip() and not line.startswith("#")
        ]
    merged = merge_adjacent(prefixes)
    with open(args.output, "w", encoding="ascii") as handle:
        count = write_aliased_prefixes(handle, merged)
    print(f"aggregated {len(prefixes)} prefixes into {count}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import compare_summaries
    from repro.hitlist.history_io import load_history_summary

    with open(args.summary_a, "r", encoding="ascii") as handle:
        summary_a = load_history_summary(handle)
    with open(args.summary_b, "r", encoding="ascii") as handle:
        summary_b = load_history_summary(handle)
    comparison = compare_summaries(
        summary_a, summary_b,
        label_a=pathlib.Path(args.summary_a).parent.name or "A",
        label_b=pathlib.Path(args.summary_b).parent.name or "B",
    )
    print(comparison.render())
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    from repro.simnet.describe import describe_world

    config = _resolve_config(args)
    internet = build_internet(config)
    print(describe_world(internet).render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.metrics import MetricsRegistry
    from repro.publish import aserve
    from repro.publish.server import PublishApp, make_server
    from repro.publish.store import SnapshotStore

    cache_bytes = int(args.cache_mb * 1024 * 1024)

    def announce(address) -> None:
        host, port = address[:2]
        if args.port_file:
            pathlib.Path(args.port_file).write_text(f"{port}\n")
        print(f"serving snapshot store {args.store} on http://{host}:{port}/ "
              f"(backend={args.backend}, rate={args.rate}/s, "
              f"burst={args.burst}, cache={args.cache_mb} MiB)", flush=True)

    if args.backend == "prefork":
        return aserve.run_prefork(
            aserve.default_app_factory(
                args.store, rate=args.rate, burst=args.burst,
                cache_bytes=cache_bytes,
            ),
            host=args.host, port=args.port, workers=args.workers,
            ready=announce,
        )

    app = PublishApp(
        SnapshotStore(args.store), metrics=MetricsRegistry(),
        rate=args.rate, burst=args.burst, cache_bytes=cache_bytes,
    )
    if args.backend == "asyncio":
        try:
            asyncio.run(aserve.serve_async(
                app, host=args.host, port=args.port, ready=announce,
            ))
        except KeyboardInterrupt:
            pass
        return 0

    server = make_server(app, host=args.host, port=args.port)
    announce(server.server_address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_config(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if args.output == "-":
        save_config(config, sys.stdout)
    else:
        with open(args.output, "w", encoding="ascii") as handle:
            save_config(config, handle)
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# scenario subcommands

def _expand_scenario_ref(
    ref: str, scale: Optional[str], seed: Optional[int]
):
    """Expand a scenario reference: a library name or a file path.

    Anything that exists on disk (or looks like a path) is expanded as
    a file — ``.scn`` source or an already expanded artifact; otherwise
    the reference names a library scenario.
    """
    from repro.scenario import expand_library_scenario, expand_path

    path = pathlib.Path(ref)
    if path.is_file() or path.suffix in (".scn", ".json") or "/" in ref:
        return expand_path(str(path), scale=scale, seed=seed)
    return expand_library_scenario(ref, scale=scale, seed=seed)


def cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenario import list_scenarios, load_scenario_source
    from repro.scenario.sdl import parse as parse_scn

    names = list_scenarios()
    if not names:
        print("no library scenarios found")
        return 1
    for name in names:
        document = parse_scn(load_scenario_source(name))
        title = document.get("title", "")
        print(f"{name:24s} {title}")
    return 0


def cmd_scenario_show(args: argparse.Namespace) -> int:
    from repro.scenario import load_scenario_source

    try:
        source = load_scenario_source(args.scenario)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1
    sys.stdout.write(source)
    return 0


def cmd_scenario_expand(args: argparse.Namespace) -> int:
    from repro.scenario import artifact_to_json

    try:
        expanded = _expand_scenario_ref(args.scenario, args.scale, args.seed)
    except ValueError as error:
        print(f"scenario expansion failed: {error}", file=sys.stderr)
        return 1
    text = artifact_to_json(expanded)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        pathlib.Path(args.output).write_text(text, encoding="ascii")
        print(f"wrote expanded scenario {expanded.name!r} to {args.output}")
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    import json

    from repro.scenario import artifact_to_json, check_summary, render_results

    try:
        expanded = _expand_scenario_ref(args.scenario, args.scale, args.seed)
    except ValueError as error:
        print(f"scenario expansion failed: {error}", file=sys.stderr)
        return 1
    config = expanded.config
    internet = build_internet(config)
    service = HitlistService(
        internet, config,
        settings=expanded.settings(),
        fault_plan=expanded.fault_plan,
    )
    history = service.run(_scan_days(args, config, run=expanded.run))
    outdir = pathlib.Path(args.output)
    count, aliased, _ = _write_run_outputs(outdir, config, internet, history)
    # the exact artifact this run executed, --seed override included
    (outdir / "scenario-expanded.json").write_text(
        artifact_to_json(expanded), encoding="ascii"
    )
    with open(outdir / "summary.json", "r", encoding="ascii") as handle:
        summary = json.load(handle)
    print(f"scenario {expanded.name!r}: wrote {count} responsive addresses, "
          f"{aliased} aliased prefixes and scenario-expanded.json to {outdir}")
    results = check_summary(expanded.invariants, summary)
    print(render_results(results))
    return 0 if all(result.passed for result in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="IPv6 Hitlist reproduction toolkit (IMC 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p):
        p.add_argument("--preset", choices=("small", "default"), default="small",
                       help="scenario scale (default: small)")
        p.add_argument("--config", help="JSON scenario file (overrides preset)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--days", type=int,
                       help="simulate only the first N days")
        p.add_argument("--interval", type=int,
                       help="fixed scan interval in days")
        p.add_argument("--faults",
                       help="JSON fault plan (outages, rate limits, loss "
                            "bursts, source failures) to inject")
        p.add_argument("--vantages", type=int, dest="vantages", default=None,
                       metavar="N",
                       help="simulated vantage points scanning as a fleet "
                            "(default: 1, the paper's single TUM vantage; "
                            ">1 shards targets across AS-diverse members "
                            "with quorum reconciliation)")
        p.add_argument("--quorum", choices=("strict", "majority", "any"),
                       default=None,
                       help="policy reconciling witness-target verdicts "
                            "that disagree across vantages "
                            "(default: majority)")
        p.add_argument("--vantage-faults", dest="vantage_faults",
                       metavar="SPEC",
                       help="extra per-vantage outage windows as "
                            "'vid:START-END[,vid:START-END...]' (e.g. "
                            "'vp1:10-20,vp2:14-18'), merged into the "
                            "fault plan")
        p.add_argument("--retry-attempts", type=int, dest="retry_attempts",
                       help="probe tries per target per scan (default: 1)")
        p.add_argument("--scan-workers", type=int, dest="scan_workers",
                       default=None, metavar="N",
                       help="scan-engine worker processes for the probe "
                            "stage (results are identical for any N)")
        p.add_argument("--scan-chunk-size", type=int, dest="scan_chunk_size",
                       default=None, metavar="TARGETS",
                       help="targets per scan-engine chunk (default: 4096; "
                            "scheduling knob only, results are identical "
                            "for any value)")
        p.add_argument("--scan-mode", choices=("full", "incremental"),
                       dest="scan_mode", default=None,
                       help="'incremental' probes only churned/new/degraded/"
                            "refresh-due prefixes plus confirmation samples "
                            "and carries stable prefixes forward "
                            "(default: full)")
        p.add_argument("--refresh-interval", type=int, dest="refresh_interval",
                       default=None, metavar="SCANS",
                       help="incremental mode: fully re-probe every stable "
                            "prefix at least every SCANS scans (default: 10)")
        p.add_argument("--sample-rate", type=float, dest="sample_rate",
                       default=None, metavar="RATE",
                       help="incremental mode: deterministic per-day "
                            "fraction of stable prefixes probed as "
                            "confirmation samples (default: 0.03125)")
        p.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                       help="write per-scan state checkpoints to this "
                            "directory (created if missing)")
        p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every",
                       help="checkpoint every N scans (default: 1 when "
                            "--checkpoint-dir is set)")
        p.add_argument("--resume", dest="resume",
                       help="resume an interrupted run from a checkpoint "
                            "file or directory (ignores world/schedule flags)")
        p.add_argument("--publish-dir", dest="publish_dir", metavar="DIR",
                       help="commit each scan's publication set to a "
                            "versioned snapshot store at DIR (serve it "
                            "with 'repro-cli serve')")
        p.add_argument("--metrics-json", dest="metrics_json", metavar="PATH",
                       help="write the run's metrics (deterministic view, "
                            "canonical JSON) to PATH")
        p.add_argument("--metrics-prom", dest="metrics_prom", metavar="PATH",
                       help="write the run's metrics (including wall-clock "
                            "timings) to PATH in Prometheus text format")
        p.add_argument("--trace", dest="trace", metavar="PATH",
                       help="write per-stage span timings to PATH as JSON")

    # `pipeline` is an alias of `simulate` — the scenario workflow's
    # natural verb (`scenario expand` output feeds `pipeline --config`)
    for verb in ("simulate", "pipeline"):
        p_sim = sub.add_parser(verb, help="run the hitlist pipeline")
        add_world_args(p_sim)
        p_sim.add_argument("--output", "-o", default="repro-out",
                           help="output directory")
        p_sim.add_argument("--strict", action="store_true",
                           help="exit non-zero when paper-shape validation "
                                "fails")
        p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate",
                            help="run the pipeline plus the Sec. 6 evaluation")
    add_world_args(p_eval)
    p_eval.add_argument("--output", "-o", default="repro-out",
                        help="output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_gen = sub.add_parser("generate", help="run a target generation algorithm")
    p_gen.add_argument("algorithm", choices=sorted(_GENERATORS))
    p_gen.add_argument("seeds", help="file with one IPv6 address per line")
    p_gen.add_argument("--budget", type=int, default=10_000)
    p_gen.add_argument("--output", "-o", default="candidates.txt")
    p_gen.set_defaults(func=cmd_generate)

    p_agg = sub.add_parser("aggregate", help="aggregate a prefix list")
    p_agg.add_argument("prefixes", help="file with one CIDR prefix per line")
    p_agg.add_argument("--output", "-o", default="aggregated.txt")
    p_agg.set_defaults(func=cmd_aggregate)

    p_cmp = sub.add_parser("compare", help="diff two runs' summary.json files")
    p_cmp.add_argument("summary_a")
    p_cmp.add_argument("summary_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_desc = sub.add_parser("describe", help="summarize a built world")
    p_desc.add_argument("--preset", choices=("small", "default"), default="small")
    p_desc.add_argument("--config", help="JSON scenario file (overrides preset)")
    p_desc.add_argument("--seed", type=int)
    p_desc.set_defaults(func=cmd_describe)

    p_srv = sub.add_parser("serve",
                           help="serve a publication snapshot store over HTTP")
    p_srv.add_argument("--store", default="publish-store",
                       help="snapshot store directory (default: publish-store)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8064,
                       help="TCP port (0 binds an ephemeral port)")
    p_srv.add_argument("--backend", choices=("thread", "asyncio", "prefork"),
                       default="asyncio",
                       help="serving tier: 'asyncio' (default; keep-alive "
                            "event loop, sendfile), 'prefork' (N asyncio "
                            "workers sharing one socket), or 'thread' "
                            "(stdlib ThreadingHTTPServer smoke bridge)")
    p_srv.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker processes for --backend prefork "
                            "(default: 2)")
    p_srv.add_argument("--cache-mb", type=float, dest="cache_mb",
                       default=64.0, metavar="MIB",
                       help="hot-blob cache byte budget in MiB "
                            "(default: 64; 0 disables the cache)")
    p_srv.add_argument("--rate", type=float, default=50.0,
                       help="rate-limit tokens per second per client")
    p_srv.add_argument("--burst", type=float, default=100.0,
                       help="rate-limit burst size per client")
    p_srv.add_argument("--port-file", dest="port_file", metavar="PATH",
                       help="write the bound port number to PATH (useful "
                            "with --port 0)")
    p_srv.set_defaults(func=cmd_serve)

    p_scn = sub.add_parser(
        "scenario",
        help="work with scenario files (list/show/expand/run)",
    )
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)

    p_scn_list = scn_sub.add_parser(
        "list", help="list the named library scenarios")
    p_scn_list.set_defaults(func=cmd_scenario_list)

    p_scn_show = scn_sub.add_parser(
        "show", help="print a library scenario's source")
    p_scn_show.add_argument("scenario", help="library scenario name")
    p_scn_show.set_defaults(func=cmd_scenario_show)

    def add_scenario_args(p):
        p.add_argument("scenario",
                       help="library scenario name or path to a .scn "
                            "source / expanded artifact")
        p.add_argument("--scale", choices=("small", "default"),
                       help="override the scenario's base preset")
        p.add_argument("--seed", type=int,
                       help="post-expansion seed override (recorded in "
                            "the artifact's provenance)")

    p_scn_exp = scn_sub.add_parser(
        "expand",
        help="expand a scenario to its flat artifact (deterministic JSON)")
    add_scenario_args(p_scn_exp)
    p_scn_exp.add_argument("--output", "-o", default="-",
                           help="artifact path (default: stdout)")
    p_scn_exp.set_defaults(func=cmd_scenario_expand)

    p_scn_run = scn_sub.add_parser(
        "run",
        help="expand a scenario, run its campaign and check its invariants")
    add_scenario_args(p_scn_run)
    p_scn_run.add_argument("--output", "-o", default="repro-out",
                           help="output directory")
    p_scn_run.add_argument("--days", type=int,
                           help="override the scenario's run.days")
    p_scn_run.add_argument("--interval", type=int,
                           help="override the scenario's run.interval")
    p_scn_run.set_defaults(func=cmd_scenario_run)

    p_cfg = sub.add_parser("config", help="dump a scenario config as JSON")
    p_cfg.add_argument("--preset", choices=("small", "default"), default="small")
    p_cfg.add_argument("--config", help="round-trip an existing JSON config")
    p_cfg.add_argument("--seed", type=int)
    p_cfg.add_argument("--output", "-o", default="-")
    p_cfg.set_defaults(func=cmd_config)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
