"""The repository's benchmark: four workloads on the served lock path.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` runs an untraced pass and then a traced pass
of ``S/2`` seconds each and reports the per-layer metrics, the tracing
overhead among them.  Every run checks the program's outputs; a failed
check prints the failures and ``"correct": false`` with no numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the provenance of the result, the saturation witnesses and a
readable table of the metrics.  See ``perfbench/README.md`` for the
workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from hostspeed import factor_between
from stats import ratio, window_summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups timed per --trace 0 run; setup_s is their median.  A
#: simulator set-up takes milliseconds, so it is repeated more often.
SETUPS = 5
SIM_SETUPS = 25
#: seconds of load before the measurement window opens
WARMUP = 1.0
#: seconds a server or sim process may take to start, report or exit
PROCESS_TIMEOUT = 60.0


class BenchError(Exception):
    """The benchmark could not run to a result."""


def place_processes():
    """Pin this process (the load generator) to the second core and
    return the first for the process under test, so the two never share
    a core and never migrate mid-window.  None on a single-core host."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None
    os.sched_setaffinity(0, {cores[1]})
    return cores[0]


async def spawn(cmd, core, **kwargs):
    """Start a process under test, pinned to ``core`` when given."""
    proc = await asyncio.create_subprocess_exec(
        *cmd, cwd=ROOT, stdout=subprocess.PIPE, limit=1 << 26, **kwargs
    )
    if core is not None:
        os.sched_setaffinity(proc.pid, {core})
    return proc


# -- processes under test -------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid) -> float:
    """Peak resident set (VmHWM) of process ``pid`` (or ``"self"``) in MiB."""
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


async def _read_json_line(proc, what: str) -> dict:
    line = await asyncio.wait_for(proc.stdout.readline(), PROCESS_TIMEOUT)
    if not line:
        raise BenchError("%s exited without a report" % what)
    return json.loads(line)


async def _finish(proc, what: str):
    """Wait for ``proc`` to exit; kill it if it will not."""
    try:
        code = await asyncio.wait_for(proc.wait(), PROCESS_TIMEOUT)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
    if code != 0:
        raise BenchError("%s exited with code %s" % (what, code))


class SpeedProbe:
    """The ``hostspeed.py`` probe process, from before the first launch
    until the pass ends."""

    def __init__(self):
        self.cmd = [sys.executable, os.path.join(HERE, "hostspeed.py")]
        self.proc = None

    async def start(self, core):
        """Start on ``core``; None leaves it on this process's core."""
        self.proc = await spawn(self.cmd, core, stdin=subprocess.PIPE)
        return self

    async def stop(self) -> list:
        """The chunk timings the probe took in its whole life."""
        self.proc.stdin.write(b"STOP\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), PROCESS_TIMEOUT)
        await _finish(self.proc, "host probe")
        return json.loads(line)

    async def kill(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class Server:
    """One benchmark server process: launch, first answer, stop."""

    def __init__(self, workload: str, trace: bool, core):
        self.core = core
        self.cmd = [sys.executable, os.path.join(HERE, "server.py"), "--workload", workload]
        if trace:
            self.cmd.append("--trace")
        self.proc = None
        self.port = 0
        #: perf_counter at launch and at the first answered request
        self.launched = self.answered = 0.0

    async def start(self):
        """Launch and wait for the first answered request (setup time)."""
        self.launched = time.perf_counter()
        self.proc = await spawn(self.cmd, self.core, stdin=subprocess.PIPE)
        line = await asyncio.wait_for(self.proc.stdout.readline(), PROCESS_TIMEOUT)
        if not line.startswith(b"READY "):
            raise BenchError("server did not start: %r" % line)
        self.port = int(line.split()[1])
        await self.stats()
        self.answered = time.perf_counter()
        return self

    async def stats(self) -> dict:
        from repro.service.client import ServiceClient

        client = await ServiceClient("127.0.0.1", self.port).connect()
        try:
            return await client.stats()
        finally:
            await client.close()

    async def stop(self) -> dict:
        self.proc.stdin.write(b"STOP\n")
        await self.proc.stdin.drain()
        report = await _read_json_line(self.proc, "server")
        await _finish(self.proc, "server")
        return report

    async def kill(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


async def _sample_window(pid: int, w0: float, w1: float) -> dict:
    """Server and load-generator CPU seconds at the window's edges."""
    samples = {}
    for edge, at in (("w0", w0), ("w1", w1)):
        await asyncio.sleep(max(0.0, at - time.perf_counter()))
        samples[edge] = (proc_cpu_seconds(pid), time.process_time())
    return {
        "server_cpu": samples["w1"][0] - samples["w0"][0],
        "load_cpu": samples["w1"][1] - samples["w0"][1],
    }


# -- served workloads -----------------------------------------------------------


async def served_pass(name, seed, seconds, trace, setups, core) -> dict:
    """Set up ``setups`` servers (keeping the last) and drive one pass,
    with the host-speed probe on the server's core throughout."""
    from workloads import SERVED, object_paths

    spec = SERVED[name]
    paths = object_paths(spec["database"], spec["relations"])
    # the generator's own collector should not walk its set-up objects
    # mid-window: its pauses would show up as server latency
    gc.collect()
    gc.freeze()
    speed = SpeedProbe()
    try:
        await speed.start(core)
        run = await _served_pass(name, paths, seed, seconds, trace, setups, core)
        run["speed"] = await speed.stop()
    finally:
        await speed.kill()
    return run


async def _served_pass(name, paths, seed, seconds, trace, setups, core) -> dict:
    from loadgen import drive
    from workloads import SERVED

    spec = SERVED[name]
    setup_spans = []
    for index in range(setups):
        server = Server(name, trace, core)
        try:
            await server.start()
            setup_spans.append((server.launched, server.answered))
            if index < setups - 1:
                await server.stop()
        except BaseException:
            await server.kill()
            raise
    pid = server.proc.pid
    try:
        stats0 = await server.stats()
        pass_cpu0 = proc_cpu_seconds(pid)
        started = time.perf_counter()
        w0 = started + WARMUP
        w1 = w0 + seconds
        sampler = asyncio.ensure_future(_sample_window(pid, w0, w1))
        tally = await drive(spec, server.port, paths, seed, w0, w1)
        window = await sampler
        load_s = time.perf_counter() - started
        stats1 = await server.stats()
        pass_cpu = proc_cpu_seconds(pid) - pass_cpu0
        rss_mb = proc_peak_rss_mb(pid)
        report = await server.stop()
    finally:
        await server.kill()
    delta = {
        key: stats1[key] - stats0[key]
        for key in stats1
        if isinstance(stats1[key], (int, float)) and key in stats0
    }
    failures = []
    if stats1["lock_count"] != 0:
        failures.append("locks still held after drain: %d" % stats1["lock_count"])
    if spec["write_ratio"] == 0 and tally.err:
        failures.append("read-only workload got %d ERR frames" % tally.err)
    if tally.timeout or delta["timeouts"]:
        failures.append("ERR TIMEOUT answered (%d client, %d server)" % (tally.timeout, delta["timeouts"]))
    if tally.unexpected:
        failures.append("unexpected ERR frames, e.g. %s" % tally.unexpected[0])
    if tally.unanswered or tally.disconnects:
        failures.append("%d requests unanswered, %d disconnects" % (tally.unanswered, tally.disconnects))
    if trace and report["audit"]:
        failures.append("verify.audit: %s" % "; ".join(report["audit"][:3]))
    if not tally.txn[0]:
        failures.append("no transaction committed in the measurement window")
    return {
        "tally": tally,
        "seconds": seconds,
        "load_s": load_s,
        "window": window,
        "pass_cpu": pass_cpu,
        "stats": delta,
        "report": report,
        "setup": setup_spans,
        "rss_mb": rss_mb,
        "failures": failures,
    }


def served_end_to_end(run: dict) -> dict:
    """End-to-end metrics of a served pass, at the probe's reference
    speed.  The samples also give the request rate and percentiles as
    measured, unscaled."""
    tally, speed = run["tally"], run["speed"]
    req = window_summary(*tally.req, tally.w0, tally.w1, scale=1e3, speed=speed)
    txn = window_summary(*tally.txn, tally.w0, tally.w1, scale=1e3, speed=speed)
    raw = window_summary(*tally.req, tally.w0, tally.w1, scale=1e3)
    req["raw"] = {key: raw[key] for key in ("rate", "p50", "p99")}
    # the probe yields to a starting server, so it times its chunk in the
    # gaps between launches: one factor for the whole set-up phase
    spans = run["setup"]
    slowness = factor_between(speed, spans[0][0], spans[-1][1])
    setup = [(answered - launched) / slowness for launched, answered in spans]
    return {
        "values": {
            "txn_per_s": txn["rate"],
            "req_per_s": req["rate"],
            "req_p50_ms": req["p50"],
            "req_p99_ms": req["p99"],
            "txn_p50_ms": txn["p50"],
            "txn_p99_ms": txn["p99"],
            "ok_ratio": 1.0 - (tally.err + tally.unanswered) / tally.sent,
            "commit_ratio": tally.txn_committed / tally.txn_started,
            "setup_s": statistics.median(setup),
            "rss_mb": run["rss_mb"],
        },
        "samples": {"req": req, "txn": txn, "setup": len(spans)},
    }


def served_per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of a served workload from its two passes."""
    tally, stats, window = untraced["tally"], untraced["stats"], untraced["window"]
    seconds = untraced["seconds"]
    trace = traced["report"]["trace"]
    layers = trace["layers"]
    empty = {"count": 0, "mean_us": 0.0, "self_us": 0.0, "p50": 0.0, "p99": 0.0,
             "outer_count": 0, "outer_us": 0.0, "n": 0}

    def layer(name):
        return layers.get(name, empty)

    plan = layer("protocol.plan")
    encode = layer("wire.encode")
    decode = layer("wire.decode")
    protocol = untraced["report"]["protocol"]
    lookups = protocol.get("plan_cache_hits", 0) + protocol.get("plan_cache_misses", 0)
    t_tally = traced["tally"]
    t_answered = t_tally.ok + t_tally.err
    untraced_rate = served_end_to_end(untraced)["values"]["req_per_s"]
    traced_rate = served_end_to_end(traced)["values"]["req_per_s"]
    return {
        "server.cpu_us_per_req": ratio(window["server_cpu"] * 1e6, len(tally.req[0])),
        "server.cpu_util": window["server_cpu"] / seconds,
        "server.self_us_per_req": ratio(traced["pass_cpu"] * 1e6 - trace["top_us"], t_answered),
        "server.frames_per_flush": ratio(stats["frames"], stats["batches"]),
        "load.cpu_util": window["load_cpu"] / seconds,
        "wire.decode_us_per_frame": decode["mean_us"],
        "wire.encode_us_per_frame": ratio(encode["outer_us"], encode["outer_count"]),
        "wire.bytes_in_per_req": ratio(trace["bytes_in"], decode["count"]),
        "wire.bytes_out_per_req": ratio(trace["bytes_out"], encode["outer_count"]),
        "protocol.plan_us_p50": plan["p50"],
        "protocol.plan_us_p99": plan["p99"],
        "protocol.steps_per_demand": ratio(trace["plan_steps"], plan["count"]),
        "protocol.downward_steps_per_demand": ratio(trace["downward_steps"], plan["count"]),
        "protocol.plan_cache_hit_ratio": ratio(protocol.get("plan_cache_hits", 0), lookups),
        "sharded.runs_per_demand": ratio(layer("lock_table.request_many")["count"], plan["count"]),
        "sharded.self_us_per_demand": ratio(layer("sharded.acquire_many")["self_us"], plan["count"]),
        "lock_table.requests_per_demand": ratio(stats["requests"], tally.demands),
        "lock_table.immediate_grant_ratio": ratio(stats["immediate_grants"], stats["requests"]),
        "lock_table.conflict_tests_per_request": ratio(stats["conflict_tests"], stats["requests"]),
        "lock_table.request_many_us": layer("lock_table.request_many")["mean_us"],
        "lock_table.release_all_us_per_txn": layer("lock_table.release_all")["mean_us"],
        "lock_table.waits_per_txn": ratio(stats["waits"], tally.txn_started),
        "lock_table.wait_ms_p50": trace["wait_ms"]["p50"],
        "lock_table.wait_ms_p99": trace["wait_ms"]["p99"],
        "txn.begin_us": layer("txn.begin")["mean_us"],
        "txn.commit_us": layer("txn.commit")["mean_us"],
        "txn.abort_us": layer("txn.abort")["mean_us"],
        "deadlock.detect_us_p50": layer("deadlock.detect")["p50"],
        "deadlock.detect_us_p99": layer("deadlock.detect")["p99"],
        "deadlock.passes_per_s": trace["detector_passes"] / traced["load_s"],
        "deadlock.useful_pass_ratio": ratio(trace["detector_useful"], trace["detector_passes"]),
        "deadlock.victims_per_s": stats["deadlock_victims"] / untraced["load_s"],
        "query.parse_us": 0.0,
        "query.requirements_us": 0.0,
        "sim.self_us_per_txn": 0.0,
        "trace.overhead_ratio": ratio(untraced_rate, traced_rate),
        "fail_ratio": (tally.err + tally.unanswered) / tally.sent,
        "abort_ratio": 1.0 - tally.txn_committed / tally.txn_started,
    }


# -- the simulator workload -----------------------------------------------------


async def sim_pass(seed, seconds, trace, setups, core) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "simdriver.py"),
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--setups", str(setups),
    ]
    if trace:
        cmd.append("--trace")
    proc = await spawn(cmd, core)
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), seconds + 2 * PROCESS_TIMEOUT)
        if not line:
            raise BenchError("sim driver exited without a report")
        await _finish(proc, "sim driver")
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
    return json.loads(line)


def sim_per_layer(untraced: dict, traced: dict, names) -> dict:
    """Per-layer metrics of the simulator workload: timings from the
    traced pass, counts from the untraced one; layers the simulator never
    runs (server, wire, sharded, transaction manager) read 0."""
    values = dict.fromkeys(names, 0.0)
    values.update(traced["per_layer"])
    values.update(untraced["per_layer"])
    values["trace.overhead_ratio"] = ratio(
        untraced["end_to_end"]["txn_per_s"], traced["end_to_end"]["txn_per_s"]
    )
    return values


# -- the run --------------------------------------------------------------------


def _load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    return [w["name"] for w in contract["workloads"]], end_to_end, per_layer


def provenance(args, samples) -> dict:
    commit = None
    dirty = None
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
            from repro.bench_runner import git_is_dirty

            dirty = git_is_dirty(ROOT)
    except OSError:
        pass
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


async def measure(args, per_layer, core):
    """(values, samples, witnesses, attempted, failed, failures)."""
    from workloads import OUT, SIM

    os.makedirs(OUT, exist_ok=True)
    if args.workload == SIM:
        if not args.trace:
            run = await sim_pass(args.seed, args.seconds, False, SIM_SETUPS, core)
            return (run["end_to_end"], run["samples"], {}, run["attempted"],
                    run["failed"], run["failures"])
        half = max(1.0, args.seconds / 2)
        untraced = await sim_pass(args.seed, half, False, 1, core)
        traced = await sim_pass(args.seed, half, True, 1, core)
        return (sim_per_layer(untraced, traced, per_layer), untraced["samples"], {},
                untraced["attempted"] + traced["attempted"],
                untraced["failed"] + traced["failed"],
                untraced["failures"] + traced["failures"])
    if not args.trace:
        run = await served_pass(args.workload, args.seed, args.seconds, False, SETUPS, core)
        result = served_end_to_end(run)
        passes = [run]
        values = result["values"]
    else:
        half = max(1.0, args.seconds / 2)
        untraced = await served_pass(args.workload, args.seed, half, False, 1, core)
        traced = await served_pass(args.workload, args.seed, half, True, 1, core)
        passes = [untraced, traced]
        values = served_per_layer(untraced, traced)
        result = served_end_to_end(untraced)
    window, seconds = passes[0]["window"], passes[0]["seconds"]
    witnesses = {
        "server.cpu_util": window["server_cpu"] / seconds,
        "load.cpu_util": window["load_cpu"] / seconds,
    }
    tallies = [p["tally"] for p in passes]
    attempted = sum(t.sent for t in tallies)
    failed = sum(t.err - t.deadlock + t.unanswered for t in tallies)
    failures = [f for p in passes for f in p["failures"]]
    return values, result["samples"], witnesses, attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program to measure under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names, end_to_end, per_layer = _load_contract()
    if args.workload not in names:
        parser.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
    try:
        values, samples, witnesses, attempted, failed, failures = asyncio.run(
            measure(args, per_layer, place_processes())
        )
    except (BenchError, OSError, asyncio.TimeoutError, ValueError) as exc:
        # a process under test died, hung or answered garbage: no result
        print("perfbench: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    units = per_layer if args.trace else end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        failures.append("metrics not measured: %s" % ", ".join(missing))
    print("# provenance %s" % json.dumps(provenance(args, samples), sort_keys=True))
    if witnesses.get("server.cpu_util") is not None:
        busier = witnesses["load.cpu_util"] > witnesses["server.cpu_util"]
        print("# witness server.cpu_util=%.3f load.cpu_util=%.3f%s" % (
            witnesses["server.cpu_util"], witnesses["load.cpu_util"],
            "  CLIENT-BOUND: the generator is busier than the server" if busier else ""))
    if args.trace:
        print("# witness trace.overhead_ratio=%.3f" % values["trace.overhead_ratio"])
    metrics = {}
    if failures:
        for failure in failures:
            print("# CHECK FAILED: %s" % failure)
    else:
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print("# %-40s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
