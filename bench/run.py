#!/usr/bin/env python3
"""Benchmark of the Tai Chi simulator: fixed workloads, host-time metrics.

Run from the repository root::

    python bench/run.py                              # all workloads, 5 rounds
    python bench/run.py --workload soak-taichi --seed 3 --seconds 16 --trace 0
    python bench/run.py --smoke --reps 1 --out bench/out/smoke.json

Every workload call runs in a fresh child interpreter (``bench/run.py
--child W``), one at a time, so the benchmark keeps at most one core
busy.  A child times the cold import of the program plus the build and
warmup of one deployment (``setup_s``), then the workload call itself
(``wall_s``), and digests the call's result.  A round runs each
workload at each of the run's inputs (``SEEDS_PER_ROUND``); rounds
interleave, even ones in workload order, odd ones reversed.  Set-up-only
children then bring the set-ups to ``SETUPS_PER_RUN``.  With ``--trace
1`` one more child per workload runs the call under ``cProfile`` and
``repro.obs.observe()`` and splits host time by ``repro.<package>``.

The parent prints ``workload metric value unit`` lines and, last, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  It exits non-zero when any child failed, raised, or
produced a digest other than the one pinned for its seed or, with none
pinned, the one most children at that seed produced.  bench/README.md
defines every metric.
"""

import argparse
import collections
import compileall
import gc
import hashlib
import heapq
import importlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = os.path.join(BENCH, "workloads")
PINNED = os.path.join(WORKLOADS, "pinned.json")
OUT = os.path.join(BENCH, "out")

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150

#: With ``--seconds``, children still running this long after the start
#: are killed and the rest are not started, so the run ends within three
#: minutes even when a child hangs.
RUN_DEADLINE_S = 165

#: Inputs per workload in one round: a run at ``--seed S`` runs each
#: workload once at each program seed ``S*K .. S*K+K-1``, and a round's
#: timings combine them, so one run averages over K inputs.
SEEDS_PER_ROUND = {"full": 2, "smoke": 1}

#: Set-ups measured per workload and run: children that only set up fill
#: the gap left by the timed children, and ``setup_s`` is their median.
SETUPS_PER_RUN = {"full": 3, "smoke": 1}

#: Packages under src/repro, plus profiler buckets for C functions
#: (``builtins``) and everything outside the program (``other``).
LAYERS = ("sim", "kernel", "hw", "dp", "core", "virt", "cp", "workloads",
          "metrics", "obs", "scenario", "tenancy", "fleet", "faults",
          "baselines", "experiments", "builtins", "other")

#: Named entry points: metric prefix -> ``module:qualname``.  One that no
#: longer resolves reports zero calls rather than failing the run.
ENTRY_POINTS = {
    "sim.schedule": "repro.sim.environment:Environment.schedule",
    "sim.process_resume": "repro.sim.process:Process._resume",
    "sim.timeout_init": "repro.sim.events:Timeout.__init__",
    "sim.event_init": "repro.sim.events:Event.__init__",
    "kernel.select_cpu": "repro.kernel.kernel:Kernel.select_cpu",
    "kernel.steal_work": "repro.kernel.kernel:Kernel.steal_work",
    "kernel.dispatch": "repro.kernel.cpu:CPU._dispatch",
    "kernel.cpu_online": "repro.kernel.cpu:CPU.online",
    "dp.loop": "repro.dp.service:DPService._loop",
    "hw.accelerator_submit": "repro.hw.accelerator:Accelerator.submit",
    "hw.port_transfer": "repro.hw.port:Link.transfer",
    "core.on_dp_idle": "repro.core.vcpu_scheduler:VCPUScheduler.on_dp_idle",
    "tenancy.may_back": "repro.tenancy.manager:TenancyManager.may_back",
    "obs.span_attribute": "repro.obs.spans:SpanTracker.attribute",
    "obs.tracer_record": "repro.obs.tracer:Tracer.record",
    "obs.telemetry_tick": "repro.obs.telemetry:TelemetryBus.tick",
    "fleet.aggregate": "repro.fleet.aggregate:aggregate_fleet",
    "fleet.telemetry_export": "repro.fleet.telemetry:write_fleet_telemetry",
}

#: Keys dropped (at any depth) before digesting a result: wall clock, host
#: paths, and the engine self-profile, which engine-only changes may alter.
VOLATILE_KEYS = frozenset({"engine", "timing", "path", "telemetry_dir"})

#: End-to-end metrics and their units, as BENCHMARK.json lists them.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Time of one calibration chunk on the machine bench/README.md's baseline
#: comes from (2 vCPUs, Intel Xeon at 2.1 GHz) in its quiet phases.
#: Changing the chunk's work or this constant rescales every reported time.
CALIBRATION_REF_S = 0.00043

#: How often a timed block is interrupted to sample the machine's speed;
#: with ~0.43 ms chunks this costs ~2% of the block, which is subtracted.
SAMPLE_PERIOD_S = 0.02

#: How the program's time follows the chunk's: when the chunk runs at
#: speed s, the program runs at about s ** SPEED_EXPONENT.  Fitted on
#: repeats of the same inputs at different machine speeds, which gave
#: 0.86-0.93 on each of the four workloads (bench/README.md).
SPEED_EXPONENT = 0.9


def load_manifest():
    with open(os.path.join(WORKLOADS, "workloads.json")) as handle:
        return json.load(handle)


def digest(result):
    """sha256 of the canonical JSON of ``result`` minus volatile keys."""
    canonical = json.dumps(_strip(result), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _strip(value):
    if isinstance(value, dict):
        return {key: _strip(item) for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    return value


# -- Machine speed ------------------------------------------------------------


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, value):
        self.callbacks = []
        self.value = value


def _resume(process, value):
    try:
        event = process.send(value)
    except StopIteration:
        return
    event.callbacks.append(process)


def _calibration_chunk():
    """Seconds for a fixed toy event simulation shaped like the program's
    hot path: timed events on a heap, generator processes resumed from
    callbacks, an allocation per event, queues and dict updates.

    It builds no reference cycles, so reference counting frees all it
    allocates and the program's garbage collector has nothing of it to
    collect later.
    """
    started = time.perf_counter()
    heap = []
    order = itertools.count()
    clock = [0]
    served = {}

    def timeout(delay, value):
        event = _Event(value)
        heapq.heappush(heap, (clock[0] + delay, next(order), event))
        return event

    def worker(key):
        backlog = collections.deque()
        for step in range(24):
            packet = yield timeout((key * 7 + step) % 13 + 1,
                                   {"size": 64 << (step % 4)})
            backlog.append(packet)
            if len(backlog) > 2:
                served[key] = served.get(key, 0) + backlog.popleft()["size"]

    for key in range(16):
        _resume(worker(key), None)
    while heap:
        clock[0], _, event = heapq.heappop(heap)
        for process in event.callbacks:
            _resume(process, event.value)
    return time.perf_counter() - started


class SpeedClock:
    """Times a block and rescales it to the reference machine speed.

    A shared host runs up to 1.8x slower for tens of seconds at a time.
    While the block runs, a wall-clock timer interrupts it every
    ``SAMPLE_PERIOD_S`` to time one calibration chunk, so the samples are
    spread evenly over the block and their mean speed (``CALIBRATION_REF_S``
    over each chunk's time) is the machine's average speed during it.
    ``seconds`` is the block's own time, without the chunks, times that
    speed to the power ``SPEED_EXPONENT``.  The program is untouched: the
    chunks only read the clock, and the collector is off while one runs,
    so none of the program's collections lands inside a chunk and is
    subtracted with it.
    """

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.chunks.append(_calibration_chunk())
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self.chunks = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw_s = time.perf_counter() - self._started - sum(self.chunks)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.chunks:
            self._sample(None, None)
        self.speed = statistics.fmean(CALIBRATION_REF_S / chunk
                                      for chunk in self.chunks)
        self.seconds = self.raw_s * self.speed ** SPEED_EXPONENT


# -- Child: one workload call in a fresh interpreter --------------------------


def _prepare(spec, size, seed, scratch):
    """Import the program, load the inputs, build and warm the first arm.

    Returns the zero-argument workload call; everything here is ``setup_s``.
    """
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    import repro.experiments
    import repro.fleet
    import repro.scenario

    ms = 1_000_000
    kind = spec["kind"]
    if kind == "soak":
        scenario = repro.scenario.load_scenario(
            os.path.join(WORKLOADS, spec["input"]))
        fault_scale = size.get("fault_scale", 1.0)
        scenario.build(seed=seed, fault_scale=fault_scale).warmup()

        def call():
            summary = repro.scenario.run_soak(
                scenario, seed=seed, duration_ns=size["duration_ms"] * ms,
                drain_ns=size["drain_ms"] * ms, dp_slo_us=spec["dp_slo_us"],
                fault_scale=fault_scale)
            if not summary["dp_sample_count"]:
                raise RuntimeError("soak produced no probe samples")
            return summary
    elif kind == "experiment":
        repro.scenario.build(spec["setup_arm"], seed=seed).warmup()

        def call():
            result = repro.experiments.run_experiment(
                size["experiment"], scale=size["scale"], seed=seed)
            if not result.rows:
                raise RuntimeError(f"{size['experiment']} produced no rows")
            return {"rows": result.rows, "derived": result.derived}
    elif kind == "fleet":
        fleet = repro.fleet.load_fleet_spec(
            os.path.join(WORKLOADS, spec["input"])).with_seed(seed)
        if "nodes" in size:
            fleet = fleet.subset(size["nodes"])
        first = fleet.nodes[0]
        first.scenario.build(
            seed=repro.fleet.node_seed(seed, first.node_id)).warmup()

        def call():
            report = repro.fleet.run_fleet(fleet, jobs=1, scale=size["scale"],
                                           telemetry_dir=scratch)
            if len(report["nodes"]) != len(fleet.nodes):
                raise RuntimeError("fleet report is missing nodes")
            return repro.fleet.canonical_report(report)
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    return call


def _code_of(target):
    """The code object of ``module:qualname``, or None if it is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        print(f"bench: entry point {target} not found; reporting 0",
              file=sys.stderr)
        return None
    if isinstance(obj, property):
        obj = obj.fget
    return obj.__code__


def _layer_of(code, package_dir):
    """Layer of a profiled function: C functions come as strings."""
    if isinstance(code, str):
        return "builtins"
    if code.co_filename.startswith(package_dir + os.sep):
        head, sep, _ = code.co_filename[len(package_dir) + 1:].partition(
            os.sep)
        if sep and head in LAYERS:
            return head
    return "other"


def _profiled(call):
    """Run ``call`` under cProfile + a metrics-only observe() session."""
    import cProfile

    from repro.obs import observe

    profiler = cProfile.Profile()
    with observe() as session:
        profiler.enable()
        result = call()
        profiler.disable()
    return result, profiler, session


def _layer_profile(profiler, session, result):
    """Per-layer self time and calls, entry points, engine event totals."""
    import repro

    # Raw per-code-object entries: ``create_stats`` keys functions by
    # (file, line, name), and generated functions (dataclass ``__init__``
    # and the like, all in "<string>") collide there, keeping whichever
    # entry memory layout put last.
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    targets = {}
    for name, target in ENTRY_POINTS.items():
        code = _code_of(target)
        if code is not None:
            targets[id(code)] = name
    layers = {layer: [0.0, 0] for layer in LAYERS}
    entries = {name: [0, 0.0] for name in ENTRY_POINTS}
    for entry in profiler.getstats():
        bucket = layers[_layer_of(entry.code, package_dir)]
        bucket[0] += entry.inlinetime
        bucket[1] += entry.callcount
        name = targets.get(id(entry.code))
        if name is not None:
            entries[name] = [entry.callcount, entry.totaltime]

    # Engine totals: every env built under our session registers a
    # ``sim.engine`` source; fleet nodes run inside their own session and
    # report their totals in the node summary instead.
    processed = skipped = 0
    for name, source in session.metrics.snapshot()["sources"].items():
        if name.split("#")[0] == "sim.engine":
            processed += source["events_processed"]
            skipped += source["events_skipped"]
    for node in result.get("nodes", []) if isinstance(result, dict) else []:
        processed += node["metrics"]["engine_events"]
        skipped += node["metrics"]["engine_events_skipped"]
    return {
        "layers": layers,
        "entries": entries,
        "events_processed": processed,
        "events_skipped": skipped,
    }


def child_main(name, seed, size_name, mode):
    """One child: print its times, digest and peak RSS as one JSON line.

    ``mode`` is ``timed``, ``setup`` (set up only, no call) or ``profile``.
    The profiled call is timed by the plain clock only: sampling signals
    there would put the calibration chunks into the profile.
    """
    import resource

    spec = load_manifest()[name]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        with SpeedClock() as setup:
            call = _prepare(spec, spec[size_name], seed, scratch)
        record = {"setup_s": setup.seconds, "raw_setup_s": setup.raw_s}
        if mode == "setup":
            print(json.dumps(record))
            return
        if mode == "profile":
            started = time.perf_counter()
            result, profiler, session = _profiled(call)
            record["raw_wall_s"] = time.perf_counter() - started
        else:
            with SpeedClock() as clock:
                result = call()
            record.update(wall_s=clock.seconds, raw_wall_s=clock.raw_s,
                          speed=clock.speed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["digest"] = digest(result)
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "profile":
        record["profile"] = _layer_profile(profiler, session, result)
    print(json.dumps(record))


# -- Parent: run the children, check them, report -----------------------------


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": SRC,
        # Fixed string hashing makes profiler call counts repeat exactly.
        "PYTHONHASHSEED": "0",
        # numpy's BLAS pool would otherwise start threads in each child.
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(name, seed, size_name, mode="timed", deadline=None):
    """One child in a fresh interpreter; returns its record with ``ok``."""
    record = {"seed": seed, "mode": mode}
    timeout = CHILD_TIMEOUT_S
    if deadline is not None:
        timeout = min(timeout, deadline - time.perf_counter())
        if timeout <= 0:
            return dict(record, ok=False, error="not started: run deadline")
    command = [sys.executable, os.path.abspath(__file__), "--child", name,
               "--seed", str(seed), "--size", size_name, "--mode", mode]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return dict(record, ok=False, error=f"timed out after {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return dict(record, ok=False,
                    error=f"exit {proc.returncode}: " + " | ".join(tail))
    record.update(json.loads(lines[-1]), ok=True)
    return record


def verify(children, pins):
    """Fail every child whose digest differs from the one pinned for its
    seed or, with none pinned, from the one most children at that seed
    produced.  Returns ``{seed: reference digest}``."""
    by_seed = collections.defaultdict(list)
    for child in children:
        if child["ok"] and "digest" in child:
            by_seed[str(child["seed"])].append(child)
    references = {}
    for seed, group in sorted(by_seed.items()):
        pinned = pins.get(seed)
        reference = pinned or collections.Counter(
            child["digest"] for child in group).most_common(1)[0][0]
        references[seed] = reference
        for child in group:
            if child["digest"] != reference:
                child["ok"] = False
                child["error"] = (f"seed {seed}: digest {child['digest'][:12]}"
                                  f" != {'pinned' if pinned else 'consensus'}"
                                  f" {reference[:12]}")
    return references


def spread(values):
    """``(median, q1, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def samples(children):
    """One workload's samples per end-to-end metric, ``None`` for a failure.

    A rep is one round: its ``wall_s`` and ``peak_rss_mb`` are the means
    over the round's timed children, one per input.  ``setup_s`` has one
    sample per set-up, timed or set-up-only.
    """
    rounds = collections.defaultdict(list)
    for child in children:
        if child["mode"] == "timed":
            rounds[child["round"]].append(child)
    out = {"wall_s": [], "raw_wall_s": [], "peak_rss_mb": []}
    for index in sorted(rounds):
        group = rounds[index]
        ok = all(child["ok"] for child in group)
        for key, values in out.items():
            values.append(statistics.fmean(child[key] for child in group)
                          if ok else None)
    out["setup_s"] = [child["setup_s"] if child["ok"] else None
                      for child in children if child["mode"] != "profile"]
    return out


def end_to_end(timed):
    """Medians of the ok samples: ``{name: (value, unit)}``."""
    out = {}
    for key, unit in E2E_UNITS.items():
        values = [value for value in timed[key] if value is not None]
        if values:
            out[key] = (statistics.median(values), unit)
    return out


def per_layer(traced, children):
    """Per-layer metrics of one traced child: ``{name: (value, unit)}``.

    The untraced children at the traced child's seed are the base of the
    two host-time ratios.
    """
    profile = traced["profile"]
    total = sum(tottime for tottime, _ in profile["layers"].values()) or 1.0
    out = {}
    for layer, (tottime, calls) in profile["layers"].items():
        out[f"{layer}.self_pct"] = (100.0 * tottime / total, "%")
        out[f"{layer}.calls"] = (calls, "count")
    for name, (calls, cumtime) in profile["entries"].items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.cum_pct"] = (100.0 * cumtime / total, "%")
    processed = profile["events_processed"]
    skipped = profile["events_skipped"]
    out["sim.events_processed"] = (processed, "count")
    out["sim.events_skipped"] = (skipped, "count")
    out["sim.skipped_ratio"] = (
        skipped / (processed + skipped) if processed + skipped else 0.0,
        "ratio")
    same_seed = [child for child in children
                 if child["mode"] == "timed" and child["ok"]
                 and child["seed"] == traced["seed"]]
    if same_seed:
        wall_s = statistics.median(child["wall_s"] for child in same_seed)
        out["sim.host_us_per_event"] = (wall_s * 1e6 / max(processed, 1),
                                        "us")
        raw_wall_s = statistics.median(child["raw_wall_s"]
                                       for child in same_seed)
        out["trace_overhead"] = (traced["raw_wall_s"] / raw_wall_s, "x")
    return out


def _load_pins(path, size_name):
    """``{workload: {seed: digest}}`` pinned for one size."""
    try:
        with open(path) as handle:
            return json.load(handle).get(size_name, {})
    except FileNotFoundError:
        return {}


def _write_pins(path, size_name, digests):
    pins = {}
    if os.path.exists(path):
        with open(path) as handle:
            pins = json.load(handle)
    for name, by_seed in digests.items():
        pins.setdefault(size_name, {}).setdefault(name, {}).update(by_seed)
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


def drive(args):
    manifest = load_manifest()
    names = args.workload.split(",") if args.workload else list(manifest)
    unknown = [name for name in names if name not in manifest]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; "
                         f"choose from {sorted(manifest)}")
    size_name = "smoke" if args.smoke else "full"
    # Byte-compile up front so no child pays (or profiles) compilation:
    # setup_s and the import machinery's call counts match on every rep.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    reps_wanted = args.reps if args.reps is not None else (
        None if args.seconds is not None else 5)
    budget_s = (args.seconds or 0) * len(names)
    per_round = SEEDS_PER_ROUND[size_name]
    seeds = [args.seed * per_round + offset for offset in range(per_round)]

    children = {name: [] for name in names}
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S if args.seconds is not None else None
    round_index = 0
    round_s = 0.0
    while True:
        if reps_wanted is not None:
            if round_index >= reps_wanted:
                break
        elif round_index > 0 and \
                time.perf_counter() - started + round_s > budget_s:
            break
        round_started = time.perf_counter()
        order = names if round_index % 2 == 0 else names[::-1]
        for name in order:
            for seed in seeds:
                child = run_child(name, seed, size_name, deadline=deadline)
                children[name].append(dict(child, round=round_index))
        round_s = time.perf_counter() - round_started
        round_index += 1
    for name in names:
        for _ in range(SETUPS_PER_RUN[size_name] - len(children[name])):
            children[name].append(
                run_child(name, seeds[0], size_name, "setup", deadline))
        if args.trace:
            children[name].append(
                run_child(name, seeds[0], size_name, "profile", deadline))

    pins = {} if args.pin else _load_pins(args.pinned, size_name)
    report = {"seed": args.seed, "size": size_name, "seeds": seeds,
              "workloads": {}}
    attempted = failed = 0
    final_metrics = {}
    for name in names:
        runs = children[name]
        digests = verify(runs, pins.get(name, {}))
        for run in runs:
            if not run["ok"]:
                print(f"bench: {name} failed: {run['error']}",
                      file=sys.stderr)
        n_failed = sum(1 for run in runs if not run["ok"])
        attempted += len(runs)
        failed += n_failed
        timed = samples(runs)
        metrics = end_to_end(timed)
        traced = next((run for run in runs if run["mode"] == "profile"), None)
        layers = per_layer(traced, runs) if traced and traced["ok"] else {}
        error_pct = 100.0 * n_failed / len(runs)
        report["workloads"][name] = {
            "digests": digests,
            "error_pct": error_pct,
            "samples": timed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
            "per_layer": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in layers.items()},
            "children": runs,
        }
        _print_workload(name, timed, metrics, error_pct, layers)
        chosen = layers if args.trace else metrics
        prefix = "" if len(names) == 1 else f"{name}/"
        final_metrics.update({
            prefix + key: {"value": value, "unit": unit}
            for key, (value, unit) in chosen.items()})

    report.update(attempted=attempted, failed=failed)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.pin and not failed:
        _write_pins(args.pinned, size_name,
                    {name: block["digests"]
                     for name, block in report["workloads"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    return 1 if failed else 0


def _print_workload(name, timed, metrics, error_pct, layers):
    for key, (value, unit) in metrics.items():
        line = f"{name} {key} {value:.6g} {unit}"
        if unit == "s":
            ok = [sample for sample in timed[key] if sample is not None]
            median, q1, q3 = spread(ok)
            line += (f" median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                     f"n={len(ok)}")
        print(line)
    print(f"{name} error_pct {error_pct:.6g} %")
    for key, (value, unit) in layers.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {key} {shown} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int,
                        help="rounds (default 5, or as many as --seconds "
                             "allows)")
    parser.add_argument("--seconds", type=float,
                        help="start another round only while it is due to "
                             "end within this many seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add one profiled child per workload and "
                             "report per-layer metrics last")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the harness self-test")
    parser.add_argument("--out", help="write every rep and metric as JSON")
    parser.add_argument("--pinned", default=PINNED,
                        help="pinned-digest file (default %(default)s)")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests as the pins for "
                             "its size and seeds")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="timed",
                        choices=("timed", "setup", "profile"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        child_main(args.child, args.seed, args.size, args.mode)
        return 0
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program source at {os.path.join(SRC, 'repro')}",
              file=sys.stderr)
        return 2
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
