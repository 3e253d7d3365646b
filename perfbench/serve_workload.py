"""serve: one ``repro serve`` process (thread workers, ``--workers 2``,
no access log or trace sink) under two client connections, each a
closed loop that sends its next request when the previous one
completes.

One connection re-asks a hot set that is warmed before timing and far
smaller than the 256-entry result cache, so every one of its requests
is a real hit.  The other sends a never-repeated tail of programs with
real analysis work, so every one of its requests is a real miss.  This
covers HTTP, `serve.jobs`, `serve.cache` and the analyzers on both
paths.  Keeping hits and misses on their own connections means every
hit overlaps exactly one miss in the server; when both connections
draw from one mixed queue, how often two misses or two hits coincide
changes from run to run, and hit latency with it.  The process worker
model is left out: its dispatcher and shards cannot run without
oversubscribing a 2-CPU machine.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

from perfbench import check, gen
from perfbench.common import (
    ROOT,
    WORK,
    HostSpeed,
    child_env,
    clock,
    median,
    metric,
    round_metrics,
)

#: Server boots per run; ``setup_s`` is their median.
SETUPS = 7
#: Requests each stream keeps prepared (and key-checked) ahead of a
#: burst: more than either connection can send in one.
AHEAD = 1000
#: The load runs in bursts of this length; the host's speed is sampled
#: between them, while the server is idle.
BURST_S = 0.5
#: With two or more CPUs the server runs on the last and the clients on
#: the first.  Left to the scheduler, the server's threads and the
#: clients land on one CPU in some runs and on two in others, and the
#: way a hit waits for the server's interpreter lock, and so hit
#: latency, differs by nearly 2x between the two placements.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {CPUS[-1]}
CLIENT_CPUS = {CPUS[0]}


class Server:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, speed: HostSpeed) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.log_path = os.path.join(WORK, f"serve-{os.getpid()}.log")
        factor = speed.factor()
        started = clock()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "2"],
                env=child_env(),
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
            self.port = self._wait_for_port()
            while self.get("/healthz")[0] != 200:
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.boot_s = (clock() - started) * factor

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            with open(self.log_path, "r", encoding="utf-8") as log:
                for line in log:
                    if line.startswith("listening on "):
                        return int(line.strip().rsplit(":", 1)[1])
            time.sleep(0.002)
        raise RuntimeError("repro serve did not start within 60 s")

    def _call(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def get(self, path: str):
        try:
            return self._call("GET", path)
        except OSError:
            return None, None

    def post(self, payload: dict):
        return self._call("POST", "/v1/analyze",
                          json.dumps(payload).encode("utf-8"))

    def cache_counts(self) -> tuple[int, int]:
        cache = json.loads(self.get("/metricsz")[1])["cache"]
        return cache["hits"], cache["misses"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.remove(self.log_path)
        except OSError:
            pass


class Stream:
    """One connection's requests, drawn from a seeded stream and
    prepared ahead of the burst that sends them.

    Tail requests are checked with the service's own cache key before
    they are sent: no two may share a key, and none may share one with
    the hot set, so every tail request is a real miss.
    """

    def __init__(self, source, payload_of, taken_keys=None) -> None:
        self.source = source
        self.payload_of = payload_of
        self.taken_keys = taken_keys
        self.items: list[tuple[str, dict]] = []
        self.sent = 0

    def top_up(self) -> None:
        from repro.serve.jobs import cache_key

        while len(self.items) - self.sent < AHEAD:
            input_id, payload = self.payload_of(next(self.source))
            if self.taken_keys is not None:
                key = cache_key("analyze", payload)
                if key in self.taken_keys:
                    raise RuntimeError(f"{input_id}: repeated cache key")
                self.taken_keys.add(key)
            self.items.append((input_id, payload))


def build_streams(seed: int) -> tuple[dict, list[Stream]]:
    """The hot payloads, and the hot and tail streams."""
    from repro.serve.jobs import cache_key

    payloads = gen.hot_universe()
    hot_keys = {cache_key("analyze", p) for p in payloads.values()}
    if len(hot_keys) != len(payloads):
        raise RuntimeError("two hot requests share a cache key")
    hot_source, tail_source = gen.serve_streams(seed)
    streams = [
        Stream(hot_source, lambda hot_id: (hot_id, payloads[hot_id])),
        Stream(
            tail_source,
            lambda entry: (entry[0], gen.tail_request(*entry)),
            taken_keys=set(hot_keys),
        ),
    ]
    return payloads, streams


def trust_hot(payloads: dict[str, dict], reference: dict) -> dict[str, bool]:
    """Check each closed hot program once against its concrete run."""
    from repro.corpus.programs import PROGRAMS
    from repro.domains import ConstPropDomain
    from repro.serve.jobs import execute_request

    trusted = {}
    for hot_id, payload in payloads.items():
        body = execute_request("analyze", payload)
        ok = check.agrees(reference, hot_id, body["result"])
        program = PROGRAMS[payload["corpus"]]
        if ok and check.is_closed(program.term):
            domain = ConstPropDomain()
            result = _analyze(payload["analyzer"], program.term, domain)
            ok = check.sound(result, program.term, domain)
        trusted[hot_id] = ok
    return trusted


def _analyze(analyzer: str, term, domain):
    """``analyzer``'s result on the closed program ``term``."""
    from repro.analysis import (
        analyze_direct,
        analyze_pushdown,
        analyze_semantic_cps,
        analyze_syntactic_cps,
    )
    from repro.cps import cps_transform

    if analyzer == "syntactic-cps":
        return analyze_syntactic_cps(cps_transform(term), domain)
    return {
        "direct": analyze_direct,
        "semantic-cps": analyze_semantic_cps,
        "pushdown": analyze_pushdown,
    }[analyzer](term, domain)


def reference_entries() -> dict[str, str]:
    from repro.serve.jobs import execute_request

    entries = {
        hot_id: check.digest(execute_request("analyze", payload)["result"])
        for hot_id, payload in gen.hot_universe().items()
    }
    for template in gen.TAIL_TEMPLATES:
        digests = {
            check.digest(
                execute_request("analyze", gen.tail_request(template, knob))[
                    "result"
                ]
            )
            for knob in (1, 2, 10**6 + 7)
        }
        if len(digests) != 1:
            raise RuntimeError(f"{template}: the knob changes the answer")
        entries[template] = digests.pop()
    return entries


def _drive(server: Server, streams: list[Stream], seconds: float,
           trace: bool, speed: HostSpeed):
    """Run both connections in bursts until the scaled windows add up
    to ``seconds``.  Returns per-stream records (each tagged with its
    burst) and the scaled window of every burst."""
    records: list[list] = [[] for _ in streams]
    windows: list[float] = []

    def client(stream: Stream, out: list, factor: float,
               burst_end: float) -> None:
        os.sched_setaffinity(0, CLIENT_CPUS)
        while clock() < burst_end and stream.sent < len(stream.items):
            input_id, payload = stream.items[stream.sent]
            traced = trace and stream.sent % 2 == 1
            stream.sent += 1
            request = dict(payload, server_timing=True) if traced else payload
            started = clock()
            status, body = server.post(request)
            out.append((input_id, payload, traced, clock() - started,
                        factor, status, body, len(windows)))

    while sum(windows) < seconds:
        for stream in streams:
            stream.top_up()
        factor = speed.factor()
        started = clock()
        burst_end = started + min(BURST_S, (seconds - sum(windows)) / factor)
        threads = [
            threading.Thread(target=client,
                             args=(stream, out, factor, burst_end))
            for stream, out in zip(streams, records)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        windows.append((clock() - started) * factor)
        if any(stream.sent == len(stream.items) for stream in streams):
            raise RuntimeError("a stream ran dry within a burst")
    return records, windows


def run(seed: int, seconds: float, trace: bool) -> tuple:
    from repro.serve.jobs import execute_request

    reference = check.load_reference()
    payloads, streams = build_streams(seed)
    trusted = trust_hot(payloads, reference)
    speed = HostSpeed()
    boots = []
    for attempt in range(SETUPS):
        server = Server(speed)
        boots.append(server.boot_s)
        if attempt < SETUPS - 1:
            server.stop()
    try:
        for payload in payloads.values():
            server.post(payload)
        hits_before, misses_before = server.cache_counts()
        (hot_records, tail_records), windows = _drive(
            server, streams, seconds, trace, speed
        )
        hits_after, misses_after = server.cache_counts()
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    # Every body must equal the in-process answer to the same request
    # and carry the reference result.
    expected_hot = {
        hot_id: json.dumps(execute_request("analyze", payload),
                           ensure_ascii=False)
        for hot_id, payload in payloads.items()
    }
    failed = 0
    good = []
    for hot, stream in ((True, hot_records), (False, tail_records)):
        for (input_id, payload, traced, elapsed, factor, status, body,
             burst) in stream:
            timing = None
            if traced and status == 200:
                document = json.loads(body)
                timing = {
                    name: value * factor
                    for name, value in document.pop("server_timing").items()
                    if isinstance(value, float)
                }
                body = json.dumps(document, ensure_ascii=False)
            if hot:
                want = expected_hot[input_id]
                ok = trusted[input_id]
            else:
                want = json.dumps(execute_request("analyze", payload),
                                  ensure_ascii=False)
                ok = True
            if not (
                ok
                and status == 200
                and body == want
                and check.agrees(reference, input_id,
                                 json.loads(body)["result"])
            ):
                failed += 1
                continue
            good.append((hot, traced, elapsed * factor, timing, burst))
    sent_hot = len(hot_records)
    sent_tail = len(tail_records)
    hits = hits_after - hits_before
    misses = misses_after - misses_before
    # The cache must have seen exactly the planned mix.
    mix_ok = hits == sent_hot and misses == sent_tail
    correct = failed == 0 and mix_ok and all(trusted.values())
    attempted = sent_hot + sent_tail
    if not trace:
        # Per-burst figures, then their medians (see `round_metrics`).
        bursts = [[] for _ in windows]
        for _, _, elapsed, _, burst in good:
            bursts[burst].append(elapsed)
        metrics = {
            "setup_s": metric(median(boots), "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            **round_metrics(bursts),
            "ops_per_s": metric(
                median(len(ops) / window
                       for ops, window in zip(bursts, windows)),
                "1/s",
            ),
        }
        return correct, attempted, failed, metrics
    hit_timings = [(e, t) for hot, traced, e, t, _ in good if traced and hot]
    miss_timings = [
        (e, t) for hot, traced, e, t, _ in good if traced and not hot
    ]
    hits_untraced = [e for hot, traced, e, _, _ in good
                     if hot and not traced]
    misses_untraced = [e for hot, traced, e, _, _ in good
                       if not hot and not traced]

    def ms(values) -> dict:
        return metric(1000 * median(values), "ms")

    metrics = {
        "serve.cache_hit_ratio": metric(hits / (hits + misses), "ratio"),
        # server_timing has no span for the lookup alone: this is the
        # server's whole hit path (validation, cache key, LRU lookup).
        "serve.cache_lookup_ms": ms(t["total_s"] for _, t in hit_timings),
        "serve.queue_wait_ms": ms(t["queue_wait_s"] for _, t in miss_timings),
        "serve.execute_ms": ms(t["analyze_s"] for _, t in miss_timings),
        "serve.serialize_ms": ms(t["serialize_s"] for _, t in miss_timings),
        "http.overhead_ms": ms(
            e - t["total_s"] for e, t in hit_timings + miss_timings
        ),
        "hit_p50_ms": ms(hits_untraced),
        "miss_p50_ms": ms(misses_untraced),
        "unaccounted_ms": ms(
            t["total_s"] - t["queue_wait_s"] - t["analyze_s"]
            - t["serialize_s"]
            for _, t in miss_timings
        ),
        # Measured on hits, where the timing splice is the largest
        # share of the request.
        "trace.overhead_ms": metric(
            1000 * (median(e for e, _ in hit_timings)
                    - median(hits_untraced)),
            "ms",
        ),
    }
    return correct, attempted, failed, metrics
