"""The repository benchmark: paper campaigns and the service, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure3-stream --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen: ``BENCHMARK.json``, ``perfbench/README.md``):

* ``figure3-stream`` -- back-to-back streamed float32 Figure-3 campaigns
  (12k traces in 2k chunks), one recorded seed each;
* ``figure4-linux`` -- back-to-back float32 Figure-4 campaigns at the
  paper's 100 traces, one recorded seed each;
* ``service-mix`` -- a closed loop of two clients against
  ``repro serve --workers 1``, each sending 32-trace figure3 requests
  drawn zipf-weighted from its own seed population.

Campaign workloads run for ``--seconds`` and read peak memory and the
schedule cache after a fixed number of campaigns; the service mix is a
fixed request plan sized by ``--seconds`` (3.5 misses per client per
second), so its cache counts are known in advance.  Every campaign and
request is checked; a mismatch counts as a failed operation.  The last line of standard output is the JSON result; the
line before it (``perfbench-detail {...}``) carries the environment,
raw samples, the service stage breakdown and the figures that are not
tracked metrics.

``--trace 1`` reports per-layer metrics instead: it runs the same work
untraced in a child process, then traced here (spans from
:mod:`tracing`), and compares the wall time and outputs of the two.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: per-run scratch space inside the checkout (service spools, trace dumps)
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")
GOLDEN = os.path.join(HERE, "golden.json")

#: BLAS/OpenMP pools pinned to one thread: by default the float32 CPA
#: matmul spreads over both cores, so its speed follows the other load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
AES_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
DETAIL_PREFIX = "perfbench-detail "


@dataclass(frozen=True)
class CampaignWorkload:
    scenario: str
    #: Session.run knobs of every measured campaign (plus its seed)
    knobs: dict
    #: traces acquired per campaign (figure4 acquires three campaigns
    #: of 100: loaded, bare-metal reference, no-averaging control)
    traces: int
    #: the key byte the attack must rank first
    key_byte: int
    #: result fields compared against the recorded values
    gated: tuple
    #: the campaign after which peak RSS and the schedule cache are read
    memory_at: int
    #: knobs of the one campaign a cold start runs during set-up
    setup_knobs: dict


CAMPAIGNS = {
    "figure3-stream": CampaignWorkload(
        scenario="figure3",
        knobs={"n_traces": 12000, "chunk_size": 2000, "precision": "float32"},
        traces=12000,
        key_byte=AES_KEY[0],
        gated=("peak_abs_corr",),
        memory_at=4,
        setup_knobs={"n_traces": 2000, "chunk_size": 1000, "precision": "float32"},
    ),
    "figure4-linux": CampaignWorkload(
        scenario="figure4",
        knobs={"precision": "float32"},
        traces=300,
        key_byte=AES_KEY[1],
        gated=("peak_loaded", "peak_bare", "margin_confidence"),
        memory_at=8,
        setup_knobs={"precision": "float32"},
    ),
}


@dataclass(frozen=True)
class ServiceWorkload:
    clients: int = 2
    n_traces: int = 32
    #: cache misses per client per second of --seconds
    misses_per_second: float = 3.5
    hits_per_miss: float = 2.5
    #: zipf exponent over a client's seen seeds, ranked by first request
    zipf_s: float = 1.1
    #: seconds of --seconds per round; the host speed is sampled
    #: between rounds, while the service is idle
    round_seconds: float = 1.5
    #: traces of the set-up warm-up request (a key no mix request shares)
    warmup_traces: int = 16
    #: result polling interval of a waiting client
    poll_s: float = 0.01


SERVICE = ServiceWorkload()
WORKLOADS = (*CAMPAIGNS, "service-mix")


class HostSpeed:
    """A fixed reference kernel, timed next to every measured sample.

    The CPU speed of a shared VM drifts: on the 2-CPU reference box a
    fixed loop's 5-second medians move by up to 30% while the program
    is unchanged.  Every timed sample is multiplied by ``NOMINAL_S``
    over this kernel's mean time just before and just after it, so the end-to-end
    times read as on the host at its nominal speed, and a slow minute
    on the host does not read as a slow program.  The kernel mixes the
    workloads' kinds of work: interpreted Python, a float32 matmul and
    a memory-bound elementwise pass.  Raw times are kept in the detail
    record.

    The drift differs between virtual CPUs, so the kernel runs on
    ``cpu``, the CPU the measured work is pinned to.
    """

    NOMINAL_S = 0.060
    #: a kernel sample this recent stands in for a fresh one
    REUSE_S = 0.5

    def __init__(self, cpu: int) -> None:
        import numpy as np

        self.cpu = cpu
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 2000), dtype=np.float32)
        self._b = rng.standard_normal((2000, 256), dtype=np.float32)
        self._c = rng.standard_normal((2000, 1024), dtype=np.float32)
        self._small = np.arange(1_000_000, dtype=np.float32)
        self._large = np.arange(4_000_000, dtype=np.float32)
        self._last = (0.0, -1.0)  # (kernel seconds, when it ended)
        self.samples: list[float] = []

    def kernel_s(self) -> float:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            start = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i
            for _ in range(3):
                self._a @ self._b
            self._a @ self._c
            for array in (self._small, self._large):
                float((array * 1.5 + 2.0).sum())
            end = time.perf_counter()
        finally:
            os.sched_setaffinity(0, previous)
        self._last = (end - start, end)
        self.samples.append(end - start)
        return end - start

    def timed(self, fn):
        """(result, raw seconds, host-scaled seconds) of ``fn()``.

        The scale comes from the kernel timed just before and just after.
        """
        kernel, when = self._last
        before = kernel if time.perf_counter() - when < self.REUSE_S else self.kernel_s()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw, raw * 2.0 * self.NOMINAL_S / (before + self.kernel_s())


# -- helpers -----------------------------------------------------------


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of one process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(parent: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            pids.append(int(name))
    return pids


def p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0


def p90_ms(values: list[float]) -> float | None:
    """The 90th percentile, only with at least ten samples beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1] * 1000.0


def timed_setups(host: HostSpeed, start_once) -> tuple[list[float], list[float]]:
    """(raw, host-scaled) seconds of ``SETUP_REPEATS`` cold starts."""
    samples = [host.timed(start_once)[1:] for _ in range(SETUP_REPEATS)]
    return [raw for raw, _ in samples], [scaled for _, scaled in samples]


# -- campaign workloads ------------------------------------------------

SETUP_CODE = (
    "import json, sys\n"
    "from repro.api import Session\n"
    "Session().run(sys.argv[1], **json.loads(sys.argv[2]))\n"
)


def check_campaign(spec: CampaignWorkload, golden: dict, seed: int, envelope, key_byte: int):
    """(gated values, problems) of one campaign envelope."""
    from repro.api import validate_envelope

    problems = []
    try:
        validate_envelope(envelope.to_json())
    except ValueError as error:
        problems.append(f"envelope: {error}")
    result = envelope.result
    failing = [name for name, passed in result.checks.items() if not passed]
    if failing:
        problems.append(f"shape checks fail: {failing}")
    rank = result.cpa.rank_of(key_byte)
    if rank != 0:
        problems.append(f"key byte {key_byte:#04x} ranks {rank}, not 0")
    data = result.to_json()
    values = {name: float(data[name]) for name in spec.gated}
    recorded = golden["seeds"].get(str(seed))
    if recorded is None:
        problems.append(f"no recorded values for seed {seed}")
    else:
        for name, value in values.items():
            if abs(value - recorded[name]) > golden["tolerance"]:
                problems.append(f"{name} {value:.6f}, recorded {recorded[name]:.6f}")
    return values, problems


def run_campaigns(
    args, spec: CampaignWorkload, golden: dict, host: HostSpeed, tracer=None, count: int | None = None
) -> tuple[dict, dict]:
    """Set-up timing, then campaigns back to back in this process.

    Runs for ``--seconds`` and at least ``spec.memory_at`` campaigns, or
    exactly ``count`` campaigns when given.  Peak RSS and the schedule
    cache are read after campaign ``spec.memory_at``, so they compare
    across versions of any speed.
    """
    from repro.api import Session
    from repro.campaigns.engine import schedule_cache_info

    key_byte = spec.key_byte if args.expect_key_byte is None else args.expect_key_byte
    order = random.Random(args.seed).sample(golden["pool"], len(golden["pool"]))
    # Everything measured here, cold starts included, runs on one CPU.
    os.sched_setaffinity(0, {host.cpu})

    setup_raw = setup_scaled = []
    if not args.skip_setup and tracer is None:
        knobs = json.dumps(dict(spec.setup_knobs, seed=golden["pool"][0]))
        argv = [sys.executable, "-c", SETUP_CODE, spec.scenario, knobs]
        setup_raw, setup_scaled = timed_setups(
            host, lambda: subprocess.run(argv, check=True, timeout=170, stdout=subprocess.DEVNULL)
        )

    session = Session()
    # Warm-up (untimed): lazy imports, allocator pools, the first compile.
    session.run(spec.scenario, seed=golden["pool"][0], **spec.knobs)
    seeds, raw, scaled, outputs, failures = [], [], [], [], []
    began = time.perf_counter()
    while (
        len(seeds) < count
        if count is not None
        else len(seeds) < spec.memory_at or time.perf_counter() - began < args.seconds
    ):
        seed = order[len(seeds) % len(order)]
        seeds.append(seed)
        # Collect between campaigns and freeze what survived, so no
        # campaign pays a full collection over what earlier ones left
        # behind (the schedule cache keeps every compiled program).
        gc.collect()
        gc.freeze()

        def campaign(seed=seed):
            if tracer is not None:
                tracer.active = True
            try:
                return session.run(spec.scenario, seed=seed, **spec.knobs)
            finally:
                if tracer is not None:
                    tracer.active = False

        try:
            envelope, raw_s, scaled_s = host.timed(campaign)
        except Exception as error:  # noqa: BLE001 - a crash is a failed operation
            values, problems = {}, [f"campaign raised {type(error).__name__}: {error}"]
        else:
            raw.append(raw_s)
            scaled.append(scaled_s)
            values, problems = check_campaign(spec, golden, seed, envelope, key_byte)
            del envelope
        outputs.append({"seed": seed, **values})
        if problems:
            failures.append({"seed": seed, "problems": problems})
        if len(seeds) == spec.memory_at:
            peak_rss = vm_hwm_mb()
            programs, entries = schedule_cache_info()

    metrics = {
        "setup_s": metric(statistics.median(setup_scaled), "s") if setup_scaled else None,
        "runs_per_s": metric(len(scaled) / sum(scaled), "1/s"),
        "traces_per_s": metric(len(scaled) * spec.traces / sum(scaled), "1/s"),
        "miss_p50_ms": metric(p50_ms(scaled), "ms"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    detail = {
        "campaigns": len(seeds),
        "seeds": seeds,
        "setup_raw_s": setup_raw,
        "latency_raw_ms": [round(x * 1000.0, 3) for x in raw],
        "latency_scaled_ms": [round(x * 1000.0, 3) for x in scaled],
        "kernel_ms": [round(x * 1000.0, 3) for x in host.samples],
        "miss_p90_ms": p90_ms(scaled),
        "schedule_cache": {"programs": programs, "entries": entries},
        "scaled_mean_s": sum(scaled) / len(scaled),
        "outputs": outputs,
        "failures": failures,
        "attempted": len(seeds),
    }
    return {name: value for name, value in metrics.items() if value is not None}, detail


# -- service workload --------------------------------------------------


def service_plan(seed: int, misses: int, hits: int) -> list[list[tuple[int, str]]]:
    """Per client: (request seed, expected cache disposition) in send order.

    Each client owns a disjoint seed population; a seed's first request
    is a miss and every later one a hit (the client waited for the
    first), and repeats pick among already-requested seeds zipf-weighted
    by first appearance.  Misses are spread evenly through the sequence,
    so the number and the positions of misses and hits are the same for
    every seed, and the mix never depends on thread timing.
    """
    rng = random.Random(seed)
    base = (seed % 100_000) * 1_000
    length = misses + hits
    miss_at = {index * length // misses for index in range(misses)}
    plans = []
    for client in range(SERVICE.clients):
        seen: list[int] = []
        plan = []
        for position in range(length):
            if position in miss_at:
                seen.append(base + client * 500 + len(seen) + 1)
                plan.append((seen[-1], "miss"))
            else:
                weights = [1.0 / (rank + 1) ** SERVICE.zipf_s for rank in range(len(seen))]
                plan.append((rng.choices(seen, weights)[0], "hit"))
        plans.append(plan)
    return plans


class ServiceProcess:
    """One ``repro serve --workers 1`` on a fresh spool.

    The server inherits the caller's CPU; its worker, which runs the
    campaigns, is moved alone onto ``work_cpu``.
    """

    def __init__(self, run_dir: str, trace_dir: str | None, work_cpu: int):
        self.spool = tempfile.mkdtemp(prefix="spool-", dir=run_dir)
        self.log_path = self.spool + ".log"
        self.trace_dir = trace_dir
        self.work_cpu = work_cpu
        self.process: subprocess.Popen | None = None
        self.workers: list[int] = []
        self.port = 0

    def start(self, timeout: float = 60.0) -> int:
        args = ["--port", "0", "--workers", "1", "--spool", self.spool]
        env = dict(os.environ)
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro", "serve", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"), *args]
            env["PERFBENCH_TRACE_DIR"] = self.trace_dir
        with open(self.log_path, "w") as log_file:
            self.process = subprocess.Popen(argv, stdout=log_file, stderr=subprocess.STDOUT, env=env)
        port_path = os.path.join(self.spool, "port")
        deadline = time.monotonic() + timeout
        while not os.path.exists(port_path):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                with open(self.log_path) as handle:
                    raise RuntimeError(f"repro serve did not start:\n{handle.read()[-2000:]}")
            time.sleep(0.01)
        with open(port_path) as handle:
            self.port = int(handle.read())
        # The workers are forked before the server binds its port.
        self.workers = child_pids(self.process.pid)
        for pid in self.workers:
            os.sched_setaffinity(pid, {self.work_cpu})
        return self.port

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and its worker processes."""
        self.workers = child_pids(self.process.pid)
        return sum(vm_hwm_mb(pid) for pid in [self.process.pid, *self.workers])

    def stop(self) -> None:
        if self.process is not None:
            self.workers = self.workers or child_pids(self.process.pid)
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=10)
            # The server joins its workers on SIGTERM; make sure none
            # outlives a server that had to be killed.
            deadline = time.monotonic() + 10
            for pid in self.workers:
                while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                    time.sleep(0.02)
                if os.path.exists(f"/proc/{pid}"):
                    os.kill(pid, signal.SIGKILL)
            self.process = None
        shutil.rmtree(self.spool, ignore_errors=True)


def figure3_request(n_traces: int, seed: int):
    from repro.api import RunRequest

    return RunRequest(n_traces=n_traces, seed=seed, precision="float32")


def client_loop(port: int, client: int, plan: list[tuple[int, str]]) -> list[dict]:
    from repro.service.client import ServiceClient, ServiceError

    records = []
    with ServiceClient("127.0.0.1", port, timeout=120) as connection:
        for seed, expected in plan:
            request = figure3_request(SERVICE.n_traces, seed)
            start = time.perf_counter()
            try:
                submitted = connection.submit("figure3", request)
                submit_s = time.perf_counter() - start
                envelope = connection.result(
                    submitted["id"], wait=True, timeout=120, poll=SERVICE.poll_s
                )
            except (ServiceError, TimeoutError, OSError) as error:
                # A refused or lost request is a failed operation.
                submitted = {"cache": "error", "id": None}
                submit_s, envelope = 0.0, {"error": f"{type(error).__name__}: {error}"}
            records.append(
                {
                    "client": client,
                    "seed": seed,
                    "expected": expected,
                    "cache": submitted["cache"],
                    "id": submitted["id"],
                    "submit_s": submit_s,
                    "latency_s": time.perf_counter() - start,
                    "envelope": envelope,
                }
            )
    return records


def check_requests(records: list[dict]) -> list[dict]:
    """Problems per request: schema, disposition, hit/miss consistency."""
    from repro.api import validate_envelope

    first_data: dict[int, str] = {}
    failures = []
    for record in records:
        problems = []
        envelope = record["envelope"]
        try:
            validate_envelope(envelope)
        except ValueError as error:
            problems.append(f"envelope: {error}")
        if envelope.get("error"):
            problems.append(f"job failed: {envelope['error']}")
        if record["cache"] != record["expected"]:
            problems.append(f"cache {record['cache']}, predicted {record['expected']}")
        data = json.dumps(envelope.get("data"), sort_keys=True)
        if first_data.setdefault(record["seed"], data) != data:
            problems.append("a hit returned another result than its miss")
        if problems:
            failures.append({"client": record["client"], "seed": record["seed"], "problems": problems})
    return failures


def read_worker_dump(trace_dir: str, jobs: int, timeout: float = 30.0) -> dict:
    """The worker's cumulative layer totals once it has logged ``jobs`` jobs."""
    deadline = time.monotonic() + timeout
    while True:
        dumps = []
        for name in os.listdir(trace_dir):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(trace_dir, name)) as handle:
                    dumps.append(json.load(handle))
        if len(dumps) > 1:
            raise RuntimeError(f"expected one service worker, found {len(dumps)}")
        if dumps and dumps[0]["jobs"] >= jobs:
            return dumps[0]
        if time.monotonic() > deadline:
            raise RuntimeError(f"worker trace never reached {jobs} jobs")
        time.sleep(0.01)


def run_service(args, run_dir: str, host: HostSpeed, traced: bool = False) -> tuple[dict, dict]:
    """Set-up timing (server start to first result), then the mix."""
    from repro.api import validate_envelope
    from repro.service.client import ServiceClient

    misses = max(2, round(SERVICE.misses_per_second * args.seconds))
    plans = service_plan(args.seed, misses, round(misses * SERVICE.hits_per_miss))
    warm_request = figure3_request(SERVICE.warmup_traces, (args.seed % 100_000) * 1_000)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=run_dir) if traced else None
    # Clients and the server share one CPU, the worker has the other.
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]} if len(usable) > 1 else set(usable))

    services: list[ServiceProcess] = []

    def start_once() -> None:
        if services:
            services.pop().stop()
        service = ServiceProcess(run_dir, trace_dir, host.cpu)
        services.append(service)
        service.start()
        with ServiceClient("127.0.0.1", service.port, timeout=120) as client:
            validate_envelope(client.run("figure3", warm_request, timeout=120))

    rounds = max(1, round(args.seconds / SERVICE.round_seconds))
    records, walls = [], []
    try:
        if args.skip_setup or traced:
            setup_raw, setup_scaled = [], []
            start_once()
        else:
            setup_raw, setup_scaled = timed_setups(host, start_once)
        service = services[0]
        baseline = read_worker_dump(trace_dir, 1) if traced else None
        for index in range(rounds):

            def one_round(index=index):
                with ThreadPoolExecutor(max_workers=SERVICE.clients) as pool:
                    futures = [
                        pool.submit(
                            client_loop,
                            service.port,
                            client,
                            plan[index * len(plan) // rounds : (index + 1) * len(plan) // rounds],
                        )
                        for client, plan in enumerate(plans)
                    ]
                    return [record for future in futures for record in future.result()]

            batch, raw_s, scaled_s = host.timed(one_round)
            walls.append((raw_s, scaled_s / raw_s))
            for record in batch:
                record["scale"] = scaled_s / raw_s
            records += batch
        peak_rss = service.peak_rss_mb()
        if traced:
            with ServiceClient("127.0.0.1", service.port) as client:
                for record in records:
                    if record["cache"] == "miss":
                        record["job"] = client.status(record["id"])
            n_misses = sum(record["cache"] == "miss" for record in records)
            trace = {"baseline": baseline, "final": read_worker_dump(trace_dir, 1 + n_misses)}
    finally:
        for service in services:
            service.stop()
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)

    miss = [r for r in records if r["cache"] == "miss"]
    hit = [r for r in records if r["cache"] == "hit"]
    miss_scaled = [r["latency_s"] * r["scale"] for r in miss]
    scaled_wall = sum(wall * scale for wall, scale in walls)
    metrics = {
        "setup_s": metric(statistics.median(setup_scaled), "s") if setup_scaled else None,
        "runs_per_s": metric(len(records) / scaled_wall, "1/s"),
        "traces_per_s": metric(len(miss) * SERVICE.n_traces / scaled_wall, "1/s"),
        "miss_p50_ms": metric(p50_ms(miss_scaled), "ms"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    detail = {
        "requests": len(records),
        "misses": len(miss),
        "hits": len(hit),
        "rounds": rounds,
        "setup_raw_s": setup_raw,
        "miss_p50_raw_ms": p50_ms([r["latency_s"] for r in miss]),
        "miss_p90_ms": p90_ms(miss_scaled),
        "hit_p50_ms": p50_ms([r["latency_s"] * r["scale"] for r in hit]),
        "scaled_mean_s": scaled_wall / len(records),
        "outputs": [
            [r["client"], r["seed"], r["cache"], json.dumps(r["envelope"].get("data"), sort_keys=True)]
            for r in records
        ],
        "failures": check_requests(records),
        "attempted": sum(len(plan) for plan in plans),
    }
    if traced:
        detail["trace"] = trace
        detail["miss_records"] = miss
    return {name: value for name, value in metrics.items() if value is not None}, detail


# -- the traced run ----------------------------------------------------


def layer_metrics(totals: dict, units: int) -> dict:
    """Per-campaign (or per-miss) self time and calls of every layer."""
    out = {}
    for layer, self_ns in totals["self_ns"].items():
        out[f"{layer}.self_ms"] = metric(self_ns / 1e6 / units, "ms")
        out[f"{layer}.calls"] = metric(totals["calls"][layer] / units, "count")
    lookups = totals["counts"]["schedule_lookups"]
    compiles = totals["counts"]["schedule_compiles"]
    out["schedule_cache.compiles"] = metric(compiles / units, "count")
    out["schedule_cache.hit_ratio"] = metric(
        max(0.0, 1.0 - compiles / lookups) if lookups else 0.0, "ratio"
    )
    return out


def untraced_reference(args) -> dict:
    """The same work untraced, in a fresh process: its detail record."""
    argv = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--skip-setup",
    ]
    if args.expect_key_byte is not None:
        argv += ["--expect-key-byte", str(args.expect_key_byte)]
    done = subprocess.run(argv, check=True, timeout=170, stdout=subprocess.PIPE, text=True)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX) :])
    raise RuntimeError("the untraced reference printed no detail record")


def traced_run(args, golden: dict | None, run_dir: str, host: HostSpeed) -> tuple[dict, dict]:
    reference = untraced_reference(args)
    if args.workload in CAMPAIGNS:
        import tracing

        tracer = tracing.install()
        _metrics, detail = run_campaigns(
            args, CAMPAIGNS[args.workload], golden, host, tracer, count=reference["campaigns"]
        )
        totals = tracer.snapshot()
        layers = layer_metrics(totals, detail["campaigns"])
        layers["schedule_cache.entries"] = metric(detail["schedule_cache"]["entries"], "count")
        # The in-process Session path has no result cache.
        layers["result_cache.hits"] = metric(0, "count")
        layers["result_cache.misses"] = metric(0, "count")
        layers["result_cache.hit_ratio"] = metric(0.0, "ratio")
        executed_s = sum(detail["latency_raw_ms"]) / 1000.0
    else:
        _metrics, detail = run_service(args, run_dir, host, traced=True)
        trace = detail.pop("trace")
        final, baseline = trace["final"], trace["baseline"]
        totals = {
            part: {name: final[part][name] - baseline[part][name] for name in final[part]}
            for part in ("self_ns", "calls", "counts")
        }
        misses = detail.pop("miss_records")
        layers = layer_metrics(totals, max(1, len(misses)))
        layers["schedule_cache.entries"] = metric(final["schedule_cache"][1], "count")
        layers["result_cache.hits"] = metric(detail["hits"], "count")
        layers["result_cache.misses"] = metric(detail["misses"], "count")
        layers["result_cache.hit_ratio"] = metric(detail["hits"] / detail["requests"], "ratio")
        # Stages of a miss, from the client and the job record.
        submit = [r["submit_s"] for r in misses]
        queue = [r["job"]["started"] - r["job"]["created"] for r in misses]
        execute = [r["job"]["finished"] - r["job"]["started"] for r in misses]
        fetch = [r["latency_s"] - s - q - e for r, s, q, e in zip(misses, submit, queue, execute)]
        detail["miss_stages_p50_ms"] = {
            "http_submit": p50_ms(submit),
            "queue_wait": p50_ms(queue),
            "job_execute": p50_ms(execute),
            "result_fetch": p50_ms(fetch),
        }
        detail["result_cache_hit_p50_ms"] = detail["hit_p50_ms"]
        executed_s = sum(execute)

    attributed_s = sum(totals["self_ns"].values()) / 1e9
    layers["trace.coverage"] = metric(attributed_s / executed_s, "ratio")
    layers["trace.overhead"] = metric(detail["scaled_mean_s"] / reference["scaled_mean_s"], "ratio")
    detail["untraced_scaled_mean_s"] = reference["scaled_mean_s"]
    detail["layer_share"] = {
        layer: round(ns / 1e9 / executed_s, 4) for layer, ns in totals["self_ns"].items()
    }
    # The traced outputs must equal the untraced ones: one more check.
    detail["attempted"] += 1
    if detail["outputs"] != reference["outputs"]:
        detail["failures"].append({"problems": ["traced outputs differ from the untraced run's"]})
    return layers, detail


# -- entry point -------------------------------------------------------


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "host_nominal_s": HostSpeed.NOMINAL_S,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--skip-setup", action="store_true",
        help="do not time cold starts (the untraced reference of a traced run)",
    )
    parser.add_argument(
        "--expect-key-byte", type=lambda text: int(text, 0), default=None,
        help="the key byte a campaign must rank first (default: the true one)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no repro sources under {SRC}; run from the root of a checkout")
        return 2
    golden = None
    if args.workload in CAMPAIGNS:
        with open(GOLDEN) as handle:
            golden = json.load(handle)[args.workload]
        if golden["knobs"] != CAMPAIGNS[args.workload].knobs:
            log("golden.json was recorded with other knobs; rerun perfbench/record_golden.py")
            return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, os.environ.get("PYTHONPATH")) if path
    )
    sys.path.insert(0, SRC)
    if not args.skip_setup:
        # Set-up is timed against a warm bytecode cache.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC, HERE],
            check=True, timeout=600, stdout=subprocess.DEVNULL,
        )
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    # The measured work runs on the last usable CPU (see HostSpeed).
    host = HostSpeed(max(os.sched_getaffinity(0)))
    recorded_environment = environment()
    try:
        if args.trace:
            metrics, detail = traced_run(args, golden, run_dir, host)
        elif args.workload in CAMPAIGNS:
            metrics, detail = run_campaigns(args, CAMPAIGNS[args.workload], golden, host)
        else:
            metrics, detail = run_service(args, run_dir, host)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = detail["failures"]
    detail.update(workload=args.workload, seed=args.seed, environment=recorded_environment)
    for failure in failures:
        log(f"FAILED {failure}")
    for name, entry in metrics.items():
        log(f"{name:28s} {entry['value']:14.4f} {entry['unit']}")
    print(DETAIL_PREFIX + json.dumps(detail), flush=True)
    result = {
        "correct": not failures,
        "attempted": detail["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
