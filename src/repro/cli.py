"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror the workflows a user of the paper's artifact would run:

* ``repro info`` — the simulated hardware and host configuration;
* ``repro simulate`` — integrate a registered scenario on a chosen backend
  and integrator, reporting energy conservation and the modelled
  timeline; every registry option is a flag (``--cores``, ``--fmt``,
  ``--dt-max``, ``--cutoff-radius`` ...);
* ``repro validate`` — the paper's Section 3 accuracy gate (device vs
  double-precision golden reference);
* ``repro campaign`` — the Section 4 measurement campaign, printing the
  Fig. 3/5 statistics and optionally writing the power csv files;
* ``repro trace`` — ``repro simulate`` with Scope tracing on: it writes a
  Chrome/Perfetto ``trace.json`` plus a metrics dump and prints a text
  flamegraph summary.

``repro simulate`` and ``repro campaign`` also honour the ``REPRO_TRACE``
environment variable: set it to a path and the run writes its Scope trace
there (metrics land next to it as ``<path>.metrics.json``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

__all__ = ["main", "build_parser", "lint_main"]


def _option_type(option):
    """A registry option flag's argparse type: the option's own type
    coercion, so a malformed value exits 2.  Its domain is each declaring
    entry's, checked when the spec resolves."""
    from .errors import ConfigurationError

    def parse(text: str):
        try:
            return replace(option, validate=None).coerce(text)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The run flags of ``simulate``, ``trace`` and ``submit``: the spec's
    own fields, then one flag per option name the three registries
    declare (``softening`` is the spec field's flag)."""
    from .backends import BACKENDS, RunSpec
    from .core import INTEGRATORS, SCENARIOS

    parser.add_argument("--n", type=int, default=2048, help="particle count")
    parser.add_argument("--cycles", type=int, default=10,
                        help="Hermite cycles")
    parser.add_argument("--dt", type=float, default=1e-3,
                        help="fixed timestep")
    parser.add_argument("--adaptive", action="store_true",
                        help="use the adaptive Aarseth shared timestep")
    parser.add_argument("--softening", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    declared: dict[str, list] = {}  # option name -> [(entry, OptionSpec)]
    for key, registry, default in (("backend", BACKENDS, "device"),
                                   ("integrator", INTEGRATORS, "hermite"),
                                   ("scenario", SCENARIOS, "plummer")):
        # no argparse choices=: the registries are open, and an unknown
        # name gets the registry's own exit-2 diagnostic
        parser.add_argument(
            f"--{key}", default=default,
            help=f"registered {key}, one of: {', '.join(registry.names())} "
                 f"({registry.choices_help()})")
        for name in registry.names():
            for option in registry.entry(name).options:
                if option.name not in RunSpec.__dataclass_fields__:
                    declared.setdefault(option.name, []).append((name, option))
    # default None: RunSpec.from_cli forwards a value only to the chosen
    # entries that declare the option
    for name, uses in declared.items():
        option = uses[0][1]
        parser.add_argument(
            f"--{name.replace('_', '-')}", dest=name, default=None,
            type=_option_type(option),
            help=f"{option.help} ({', '.join(entry for entry, _ in uses)})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wormhole N-body reproduction (SC 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print simulated hardware parameters")

    sim = sub.add_parser("simulate", help="integrate a registered scenario")
    tr = sub.add_parser("trace", help="simulate, writing a Chrome trace and "
                        "metrics to --out, then print a flamegraph")
    for run in (sim, tr):
        _add_run_flags(run)
        run.add_argument("--snapshot", type=str, default=None,
                         help="write the final state to this .npz path")
        run.add_argument("--profile", action="store_true",
                         help="print per-core device occupancy, per card "
                              "(tt backends)")
    tr.add_argument("--out", type=str, default="trace.json",
                    help="Chrome trace output path")
    tr.add_argument("--min-share", type=float, default=0.01,
                    help="hide flamegraph rows below this share (0-1)")
    tr.set_defaults(n=1024, cycles=3)

    val = sub.add_parser("validate",
                         help="device accuracy vs the golden reference")
    val.add_argument("--n", type=int, default=2048)
    val.add_argument("--cores", type=int, default=8)
    val.add_argument("--format", choices=("float32", "bfloat16", "float16"),
                     default="float32")
    val.add_argument("--seed", type=int, default=0)

    camp = sub.add_parser("campaign",
                          help="run the paper's measurement campaign")
    camp.add_argument("--accel-jobs", type=int, default=10)
    camp.add_argument("--ref-jobs", type=int, default=10)
    camp.add_argument("--n", type=int, default=102_400)
    camp.add_argument("--cycles", type=int, default=10)
    camp.add_argument("--reset-failure-rate", type=float, default=0.0)
    camp.add_argument("--csv-dir", type=str, default=None)
    camp.add_argument("--seed", type=int, default=2025)
    camp.add_argument("--report", type=str, default=None,
                      help="write a markdown campaign report to this path")
    camp.add_argument("--retries", type=int, default=1,
                      help="max device-reset attempts per job (default 1: "
                           "the paper's no-recovery behaviour)")
    camp.add_argument("--backoff", type=float, default=5.0,
                      help="base backoff seconds between reset attempts "
                           "(exponential, on the virtual clock)")
    camp.add_argument("--failover", choices=("none", "card", "cpu"),
                      default="none",
                      help="on exhausted retries: rotate to another card "
                           "or degrade to the CPU reference code")
    camp.add_argument("--checkpoint", type=str, default=None,
                      help="JSON-lines checkpoint written after every job")
    camp.add_argument("--resume", action="store_true",
                      help="resume an interrupted campaign from "
                           "--checkpoint instead of starting fresh")

    figs = sub.add_parser(
        "figures",
        help="regenerate the paper's figure data (csv) from a campaign",
    )
    figs.add_argument("out_dir", type=str)
    figs.add_argument("--accel-jobs", type=int, default=50)
    figs.add_argument("--ref-jobs", type=int, default=49)
    figs.add_argument("--seed", type=int, default=2025)

    smi = sub.add_parser("smi", help="tt-smi-style card status table")
    smi.add_argument("--cards", type=int, default=4)
    smi.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="statically lint device programs or the host stack "
             "(repro-lint)",
        description="Without --host: build the N-body device programs "
                    "exactly as the engines would and run the WH-rule "
                    "linter over them, without dispatching anything.  "
                    "With --host: run the RH-rule Watcher-Host AST pass "
                    "over the repro Python sources themselves.  Exit "
                    "codes: 0 clean, 1 findings, 2 usage or internal "
                    "error.",
    )
    lint.add_argument("--engine", choices=("both", "per-block", "batched"),
                      default="both",
                      help="which engine's program variant to lint")
    lint.add_argument("--format", choices=("float32", "bfloat16", "float16"),
                      default="float32", help="device data format")
    lint.add_argument("--n", type=int, default=2048, help="particle count")
    lint.add_argument("--cores", type=int, default=8,
                      help="Tensix cores in the program's range")
    lint.add_argument("--warnings-as-errors", action="store_true",
                      help="exit nonzero on warning findings too")
    lint.add_argument("--host", action="store_true",
                      help="run the Watcher-Host (RH-rule) pass over the "
                           "Python sources instead of device programs")
    lint.add_argument("--paths", nargs="+", metavar="PATH",
                      help="files/directories to host-lint (default: the "
                           "installed repro package)")
    lint.add_argument("--rules", metavar="RH001,RH006,...",
                      help="restrict the host pass to these rule ids")
    lint.add_argument("--baseline", metavar="FILE",
                      help="accepted-debt baseline JSON; matching findings "
                           "are reported separately and do not gate")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite --baseline with the current findings "
                           "instead of failing on them")
    lint.add_argument("--json", action="store_true",
                      help="emit the host-lint report as JSON")

    srv = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service job server",
        description="Accept RunSpec submissions over HTTP, schedule them "
                    "across a simulated multi-card farm, dedupe identical "
                    "specs through the canonical-hash result cache, and "
                    "enforce per-tenant quotas.",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8321,
                     help="listen port (0 picks a free one)")
    srv.add_argument("--cards", type=int, default=4,
                     help="concurrent card slots in the farm")
    srv.add_argument("--mode", choices=("modelled", "functional"),
                     default="modelled",
                     help="modelled: analytic campaign timeline (ms/job); "
                          "functional: really integrate on the backend")
    srv.add_argument("--sleep", type=float, default=0.0,
                     help="modelled campaign sleep padding per job, seconds")
    srv.add_argument("--max-queued", type=int, default=256,
                     help="per-tenant queued-job quota")
    srv.add_argument("--max-active", type=int, default=8,
                     help="per-tenant concurrent-run quota")
    srv.add_argument("--max-pending", type=int, default=4096,
                     help="global pending bound (backpressure valve)")
    srv.add_argument("--cache-entries", type=int, default=1024,
                     help="result-cache capacity")

    sbm = sub.add_parser(
        "submit",
        help="submit one run to a repro service and print the result",
    )
    sbm.add_argument("--url", default="http://127.0.0.1:8321",
                     help="service base URL")
    sbm.add_argument("--tenant", default="default")
    _add_run_flags(sbm)
    sbm.add_argument("--follow", action="store_true",
                     help="stream the job's progress events (NDJSON)")
    sbm.add_argument("--no-wait", action="store_true",
                     help="return the job id immediately, don't wait")

    return parser


def _cmd_info() -> int:
    from .cpuref.params import EPYC_9124_DUAL
    from .wormhole.params import DEFAULT_COSTS, WORMHOLE_N300

    chip = WORMHOLE_N300
    host = EPYC_9124_DUAL
    print("Simulated Tenstorrent Wormhole n300:")
    print(f"  Tensix cores: {chip.n_tensix_cores} "
          f"({chip.n_riscv_per_tensix} baby RISC-V each) @ "
          f"{chip.clock_hz / 1e9:.1f} GHz")
    print(f"  L1 SRAM per core: {chip.l1_bytes // 1024} KiB; "
          f"srcA/srcB: {chip.src_register_fp32_capacity} FP32 values; "
          f"dst: {chip.dst_register_segments} segments")
    print(f"  DRAM: {chip.dram_bytes / 1024**3:.0f} GiB GDDR6, "
          f"{chip.dram_bus_bits}-bit bus, "
          f"{chip.dram_bandwidth_bytes_per_s / 1e9:.0f} GB/s effective")
    print(f"  links: {chip.n_nocs} NoCs, 2x QSFP-DD @ {chip.qsfp_gbps:.0f} "
          f"Gbps, PCIe {chip.pcie_bandwidth_bytes_per_s / 1e9:.0f} GB/s")
    print(f"  board power budget: {chip.board_power_max_w:.0f} W")
    print(f"  calibrated SFPU tile-op cost: "
          f"{DEFAULT_COSTS.sfpu_cycles_per_tile_op:.0f} cycles")
    print("Simulated host (reference platform):")
    print(f"  {host.sockets}x EPYC 9124: {host.physical_cores} cores / "
          f"{host.hardware_threads} threads @ "
          f"{host.max_clock_hz / 1e9:.2f} GHz, AVX-512 "
          f"({host.simd_width_fp32} FP32 lanes)")
    return 0


def _write_trace_outputs(trace, path) -> None:
    """Write the Chrome trace plus its metrics dumps next to it."""
    from .observability import write_chrome_trace

    write_chrome_trace(trace, path)
    trace.metrics.write_json(f"{path}.metrics.json")
    print(f"trace written to {path} "
          f"({len(trace.spans)} spans, {trace.duration_s:.4f} modelled s)")
    print(f"metrics written to {path}.metrics.json")


def _device_profile_text(device, queue, engine: str) -> str:
    """The ``--profile`` report; never raises on an empty-counter device.

    The per-core table needs per-core cycle counters.  When none exist for
    the last evaluation (cleared counters, or an engine variant that does
    not replay per-core work), fall back to the batch-level aggregate from
    the command queue instead of crashing.
    """
    from .wormhole.profiler import profile_device

    title = "Device occupancy (last force evaluation)"
    if engine == "batched":
        title += " [batched engine: charge-only replay]"
    profile = profile_device(device, allow_empty=True)
    if profile.active_cores > 0:
        return f"{title}:\n{profile.table()}"
    device_s = queue.device_seconds() if queue is not None else 0.0
    host_s = queue.host_seconds() if queue is not None else 0.0
    return (
        f"{title}:\n"
        f"no per-core profiler records for the last evaluation "
        f"(engine={engine}); aggregated by batch: "
        f"device {device_s:.6f} s across {len(device.cores)} cores, "
        f"host+pcie+launch {host_s:.6f} s"
    )


def _profile_report(backend) -> str:
    """The ``--profile`` section for any backend shape.

    A sharded composite reports its per-card cost accounting plus one
    occupancy table per card; a single-card offload reports its one table;
    anything else (reference, cpu, cpu-pm) explains why there is nothing
    to profile.
    """
    children = getattr(backend, "children", None)
    if children is not None:
        lines = ["Per-card cost accounting (last force evaluation):"]
        lines += [f"  {cost.format()}" for cost in backend.last_card_costs]
        for child in children:
            lines.append("")
            lines.append(f"-- card {child.devices[0].device_id} --")
            lines.append(_device_profile_text(
                child.devices[0], child.queues[0], child.engine
            ))
        return "\n".join(lines)
    if getattr(backend, "queues", None):
        return "\n".join(
            [_device_profile_text(
                backend.devices[0], backend.queues[0], backend.engine
            )]
            + _residency_lines(backend)
        )
    return "--profile requires a tt backend; ignoring"


def _residency_lines(backend) -> list[str]:
    """Cross-timestep residency counters, when the backend tracks them
    (``tt-pm``'s Green's-function cache)."""
    counters_fn = getattr(backend, "residency_counters", None)
    if counters_fn is None:
        return []
    counters = counters_fn()
    body = ", ".join(f"{k} {v}" for k, v in sorted(counters.items()))
    return [f"Residency (cumulative across timesteps): {body}"]


def _simulate(args: argparse.Namespace, **overrides):
    """The run path of ``simulate`` and ``trace``: resolve the spec, run
    it, print its summary.  Returns ``(exit code, trace or None)``."""
    import os

    from .backends import RunSpec
    from .core import energy_report, save_npz
    from .errors import ConfigurationError
    from .observability import Trace

    try:
        spec = RunSpec.from_cli(args, os.environ, **overrides)
        backend = spec.make_backend()
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2, None

    system = spec.make_system()
    initial = energy_report(system, softening=spec.softening)
    trace = Trace() if spec.trace_path else None
    sim = spec.make_simulation(system, backend, trace=trace)
    result = sim.run(spec.cycles)
    final = energy_report(system, softening=spec.softening)
    if trace is not None:
        _write_trace_outputs(trace, spec.trace_path)

    print(f"backend: {backend.name}")
    print(f"integrator: {spec.integrator.name}, "
          f"scenario: {spec.scenario.name}")
    print(f"N = {spec.n}, cycles = {spec.cycles}, t = {system.time:.6f}")
    print(f"energy drift |dE/E0| = {final.drift_from(initial):.3e}")
    if result.model_seconds > 0:
        for tag, seconds in sorted(result.seconds_by_tag().items()):
            print(f"  modelled {tag}: {seconds:.4f} s")
        print(f"  modelled total: {result.model_seconds:.4f} s")
    if args.snapshot:
        save_npz(args.snapshot, system)
        print(f"snapshot written to {args.snapshot}")
    if args.profile:
        print()
        print(_profile_report(backend))
    return 0, trace


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _simulate(args)[0]


def _cmd_trace(args: argparse.Namespace) -> int:
    """``simulate`` with its trace written to ``--out``, then the metrics
    CSV, the modelled seconds by category and the flamegraph."""
    from .observability import format_flamegraph

    code, trace = _simulate(args, trace_path=args.out)
    if code:
        return code
    trace.metrics.write_csv(f"{args.out}.metrics.csv")
    print(f"metrics csv written to {args.out}.metrics.csv")
    print()
    print("modelled seconds by category:")
    for category, seconds in sorted(trace.seconds_by_category().items()):
        print(f"  {category:>10}: {seconds:.6f} s")
    print()
    print(format_flamegraph(trace, min_share=args.min_share))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .backends import BackendSpec, RunSpec
    from .core import validate_forces

    spec = RunSpec(n=args.n, seed=args.seed, backend=BackendSpec(
        "tt", {"cores": args.cores, "fmt": args.format}))
    system = spec.make_system()
    ev = spec.make_backend().compute(system.pos, system.vel, system.mass)
    report = validate_forces(
        system.pos, system.vel, system.mass, ev.acc, ev.jerk
    )
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .observability import trace_from_env
    from .telemetry import Campaign, CampaignSummary, JobSpec, RetryPolicy

    traced = trace_from_env()
    if args.resume:
        if not args.checkpoint:
            print("--resume requires --checkpoint", file=sys.stderr)
            return 2
        campaign = Campaign.resume(args.checkpoint)
        if traced is not None:
            campaign.trace = traced[0]
        if campaign.repaired_tail is not None:
            print("warning: checkpoint ended in a torn record (crash while "
                  "writing); it was dropped and the job in flight will be "
                  "re-run", file=sys.stderr)
        print(f"resuming from {args.checkpoint}: "
              f"{len(campaign.resumed_results)} jobs restored, "
              f"{len(campaign.remaining_schedule)} pending")
        results = campaign.run_remaining()
    else:
        campaign = Campaign(
            seed=args.seed,
            reset_failure_rate=args.reset_failure_rate,
            csv_dir=args.csv_dir,
            retry=RetryPolicy(max_attempts=args.retries,
                              base_backoff_s=args.backoff),
            failover=args.failover,
            checkpoint=args.checkpoint,
            trace=traced[0] if traced is not None else None,
        )
        schedule = (
            [JobSpec.paper_accelerated(n_particles=args.n,
                                       n_cycles=args.cycles)]
            * args.accel_jobs
            + [JobSpec.paper_reference(n_particles=args.n,
                                       n_cycles=args.cycles)]
            * args.ref_jobs
        )
        results = campaign.run_schedule(schedule)
    accel_results = [r for r in results if r.spec.accelerated]
    ref_results = [r for r in results if not r.spec.accelerated]
    accel = CampaignSummary.from_results(accel_results)
    ref = CampaignSummary.from_results(ref_results)
    print(f"accelerated: {accel.completed}/{accel.submitted} completed")
    if accel.total_attempts > accel.submitted or accel.retried:
        print(f"  reset attempts: {accel.total_attempts} "
              f"({accel.retried} jobs retried)")
    if accel.failovers:
        print("  failovers: "
              + ", ".join(f"{k} x{n}" for k, n in accel.failovers))
    if accel.time_stats:
        print(f"  time-to-solution:   {accel.time_stats.format('s')}")
        print(f"  energy-to-solution: {accel.energy_stats.format('kJ')}")
    print(f"reference: {ref.completed}/{ref.submitted} completed")
    if ref.time_stats:
        print(f"  time-to-solution:   {ref.time_stats.format('s')}")
        print(f"  energy-to-solution: {ref.energy_stats.format('kJ')}")
    if accel.time_stats and ref.time_stats:
        print(f"speedup: {ref.time_stats.mean / accel.time_stats.mean:.2f}x, "
              f"energy saving: "
              f"{ref.energy_stats.mean / accel.energy_stats.mean:.2f}x")
    if args.csv_dir:
        print(f"power csv files in {args.csv_dir}")
    if args.report:
        from .telemetry.report import write_campaign_report

        path = write_campaign_report(args.report, accel_results, ref_results)
        print(f"campaign report written to {path}")
    if traced is not None:
        _write_trace_outputs(*traced)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit-code contract (device and host): 0 clean, 1 findings, 2 error."""
    from .errors import ReproError

    try:
        if args.host:
            return _cmd_lint_host(args)
        return _cmd_lint_device(args)
    except ReproError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2


def _cmd_lint_host(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro

    from .analysis.hostlint import Baseline, HostLinter, render_json, \
        render_text
    from .errors import ConfigurationError

    if args.write_baseline and not args.baseline:
        raise ConfigurationError("--write-baseline requires --baseline FILE")

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    baseline = None
    if args.baseline and not args.write_baseline:
        baseline = Baseline.load(args.baseline)

    paths = args.paths or [Path(repro.__file__).parent]
    linter = HostLinter(rules=rules, baseline=baseline)
    report = linter.lint_paths(paths)

    if args.write_baseline:
        new = Baseline.from_findings(
            [d for d, _, _ in linter.fingerprints],
            scopes=[s for _, s, _ in linter.fingerprints],
            line_texts=[t for _, _, t in linter.fingerprints],
        )
        new.save(args.baseline)
        print(f"wrote {len(new)} baseline entr"
              f"{'y' if len(new) == 1 else 'ies'} to {args.baseline}")
        return 0

    print(render_json(report, linter=linter) if args.json
          else render_text(report, linter=linter))
    if not report.ok:
        return 1
    if args.warnings_as_errors and report.warnings:
        return 1
    return 0


def _cmd_lint_device(args: argparse.Namespace) -> int:
    from .analysis import ProgramLinter
    from .backends import make_backend
    from .metalium import CloseDevice
    from .nbody_tt.tiling import assign_tiles_to_cores
    from .wormhole.tile import tiles_needed

    variants = {
        "per-block": (False,),
        "batched": (True,),
        "both": (False, True),
    }[args.engine]

    backend = make_backend("tt", cores=args.cores, fmt=args.format)
    device = backend.devices[0]
    try:
        n_tiles = tiles_needed(args.n)
        backend._ensure_buffers(n_tiles)
        device_tiles = assign_tiles_to_cores(n_tiles, 1)[0]
        linter = ProgramLinter()
        failed = 0
        for charge_only in variants:
            label = "batched (charge-only)" if charge_only else "per-block"
            program = backend._program_for(
                device_tiles, n_tiles, charge_only=charge_only
            )
            report = linter.lint(program, device=device)
            print(f"program: {label} engine, {args.format}, "
                  f"{args.cores} cores, {n_tiles} tiles")
            print(report.format())
            if not report.ok:
                failed += 1
            elif args.warnings_as_errors and report.warnings:
                failed += 1
    finally:
        CloseDevice(device)

    pm = make_backend("tt-pm", cores=args.cores)
    pm_device = pm.devices[0]
    try:
        pm._ensure_buffers()
        linter = ProgramLinter()
        for src, dst, kspace in (("R0", "R1", False), ("R1", "W0", True)):
            label = "k-space" if kspace else "fft pass"
            program = pm._program(src, dst, kspace=kspace)
            report = linter.lint(program, device=pm_device)
            print(f"program: pm {label}, float32, {args.cores} cores, "
                  f"mesh {pm.mesh}")
            print(report.format())
            if not report.ok:
                failed += 1
            elif args.warnings_as_errors and report.warnings:
                failed += 1
    finally:
        CloseDevice(pm_device)
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import JobServer, QuotaPolicy, ServerConfig

    config = ServerConfig(
        host=args.host, port=args.port, n_cards=args.cards,
        mode=args.mode, sleep_s=args.sleep,
        policy=QuotaPolicy(
            max_queued=args.max_queued,
            max_active=args.max_active,
            max_pending_total=args.max_pending,
        ),
        cache_entries=args.cache_entries,
    )

    async def _run() -> None:
        server = JobServer(config)
        await server.start()
        print(f"repro service listening on {server.url} "
              f"({config.n_cards} cards, {config.mode} mode)")
        sys.stdout.flush()
        try:
            await server.wait_shutdown()
        finally:
            await server.stop()
            stats = server.stats()
            print(f"served {stats['jobs']['finished']} jobs, "
                  f"cache hit rate {stats['cache']['hit_rate']:.0%}, "
                  f"{stats['quota']['rejections_total']} quota rejections")

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as json_mod
    import os

    from .backends import RunSpec
    from .errors import ConfigurationError, QuotaExceededError, ServiceError
    from .service import ServiceClient

    try:
        spec = RunSpec.from_cli(args, os.environ)
    except ConfigurationError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    try:
        job = client.submit(spec, tenant=args.tenant)
        if args.follow and not job["state"] in ("done", "failed"):
            for event in client.events(job["id"]):
                print(json_mod.dumps(event))
            job = client.job(job["id"])
        elif not args.no_wait and job["state"] not in ("done", "failed"):
            job = client.wait(job["id"])
    except QuotaExceededError as exc:
        print(f"rejected: {exc} "
              f"(retry after ~{exc.retry_after_s:.0f} modelled s)",
              file=sys.stderr)
        return 1
    except (ServiceError, OSError) as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    print(json_mod.dumps(job, indent=2, sort_keys=True))
    return 1 if job["state"] == "failed" else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=6, suppress=True)
    if args.command == "info":
        return _cmd_info()
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "figures":
        from .bench.figures import generate_figure_data

        paths = generate_figure_data(
            args.out_dir,
            seed=args.seed,
            accel_jobs=args.accel_jobs,
            ref_jobs=args.ref_jobs,
        )
        for fig_id, path in sorted(paths.items()):
            print(f"{fig_id}: {path}")
        return 0
    if args.command == "smi":
        import numpy as np_mod

        from .telemetry.tt_smi import TTSMI

        smi = TTSMI(args.cards, np_mod.random.default_rng(args.seed))
        print(smi.format_table())
        return 0
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def lint_main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-lint`` console script."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    return main(["lint", *argv])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
