"""The process that does the program's work for one workload run.

Reads a job (JSON) on stdin and writes one JSON result on stdout.  Requests
go through ``jointtorsion.cli.run_request`` in this process, in a closed loop
(one client; the next request is sent when the last one returned).

The loop runs whole rounds: at least ``min_rounds``, and then more while the
next round is expected to end within ``seconds``.  Only the call is timed;
parsing the request text and serialising the response happen outside.  The
first response to each request is returned for checking, and every later
response to the same request is compared with it byte for byte.

After each untraced round the worker times a few fresh interpreters that
import ``jointtorsion.cli`` (the set-up a user pays), so that set-up samples
are spread over the whole run like the request samples.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


class Client:
    def __init__(self):
        import jointtorsion.cli
        self._cli = jointtorsion.cli

    def call(self, text):
        """(seconds, response text or None on failure, error text)."""
        request = json.loads(text)
        start = time.perf_counter()
        try:
            response = self._cli.run_request(request)
        except Exception as exc:  # every failure is counted, never fatal
            return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return elapsed, json.dumps(response, sort_keys=True, separators=(",", ":")), ""


class Recorder:
    """Latencies, failures and first responses, keyed by request text."""

    def __init__(self):
        self.latencies = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = {}
        self.mismatched = set()

    def record(self, text, elapsed, response, error):
        self.attempted += 1
        if response is None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append({"request": text[:300], "error": error})
            return
        self.latencies.setdefault(text, []).append(elapsed)
        if self.first.setdefault(text, response) != response:
            self.mismatched.add(text)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)
        for text, response in other.first.items():
            if self.first.setdefault(text, response) != response:
                self.mismatched.add(text)
        self.mismatched |= other.mismatched


def run_round(client, texts, recorder, tracer=None, op_base=0):
    for i, text in enumerate(texts):
        if tracer is not None:
            tracer.start_op(op_base + i)
        recorder.record(text, *client.call(text))


def rounds_within(seconds, min_rounds, run_one):
    """Call run_one(index) for whole rounds; returns the number of rounds."""
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        run_one(rounds)
        last = time.perf_counter() - t0
        rounds += 1
    return rounds


def setup_probe(root) -> float:
    """Wall seconds of a fresh interpreter that imports jointtorsion.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import jointtorsion.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                   cwd=root, timeout=60)
    return time.perf_counter() - start


def traced_loop(client, texts, seconds, recorder):
    """A counting round, then alternating untraced and traced rounds.

    Counts come from the counting round (identical in every round, since no
    state is shared between requests); span times come from the traced
    rounds; the untraced rounds give the tracing overhead.
    """
    from tracing import Tracer, span_totals

    start = time.perf_counter()
    counting = Tracer(counting=True)
    counting.install()
    try:
        run_round(client, texts, recorder, counting)
    finally:
        counting.uninstall()
    calls_by_op: dict = {}
    for _sid, _parent, op, name, _start, _end in counting.spans:
        calls_by_op.setdefault(op, Counter())[name] += 1

    tracer = Tracer()
    plain = Recorder()
    traced = Recorder()

    def run_one(index):
        if index % 2 == 0:
            run_round(client, texts, plain)
            return
        tracer.install()
        try:
            run_round(client, texts, traced, tracer, (index + 1) * len(texts))
        finally:
            tracer.uninstall()

    rounds_within(seconds - (time.perf_counter() - start), 2, run_one)
    recorder.merge(plain)
    recorder.merge(traced)
    totals = span_totals(tracer.spans)
    return {
        "counts": counting.counts(),
        "calls": dict(sum(calls_by_op.values(), Counter())),
        "calls_by_op": {str(k): dict(v) for k, v in sorted(calls_by_op.items())},
        "counted_ops": len(texts),
        "span_total_s": dict(totals["total"]),
        "span_self_s": dict(totals["self"]),
        "traced_ops": traced.attempted,
        "plain_best_s": {t: min(v) for t, v in plain.latencies.items()},
        "traced_best_s": {t: min(v) for t, v in traced.latencies.items()},
        "spans": tracer.spans,
    }


def main() -> int:
    job = json.load(sys.stdin)
    texts = [e["text"] for e in job["entries"]]
    sys.path.insert(0, os.path.join(job["root"], "src"))
    client = Client()
    recorder = Recorder()
    # Warm-up: one untimed call, so lazy set-up (BLAS threads, caches) is
    # not charged to the first timed operation.
    client.call(texts[0])
    result = {}
    if job["trace"]:
        layers = traced_loop(client, texts, job["seconds"], recorder)
        with open(job["trace_path"], "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "kinds": [e["kind"] for e in job["entries"]],
                       **layers}, fh)
        del layers["spans"]
        result["layers"] = layers
    else:
        setup = []

        def run_one(_index):
            run_round(client, texts, recorder)
            setup.extend(setup_probe(job["root"])
                         for _ in range(job["setup_probes_per_round"]))

        result["rounds"] = rounds_within(job["seconds"], job["min_rounds"], run_one)
        result["setup_s"] = setup
    result.update({
        "latencies_s": recorder.latencies,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "errors": recorder.errors,
        "responses": recorder.first,
        "mismatched": sorted(recorder.mismatched),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
