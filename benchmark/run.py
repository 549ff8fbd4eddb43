"""Benchmark of the jointtorsion package: one workload per run.

    python3 benchmark/run.py --workload exact-requests --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  The workload's requests are generated from
``--seed`` by the benchmark's own code, a fresh worker process runs them in a
closed loop for ``--seconds``, and every response is checked outside the
timed region with the benchmark's own exact arithmetic.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a traced run gives the per-layer ones and writes its spans under
``benchmark/out/``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 175          # every run ends well within 180 s
SETUP_PROBES_PER_ROUND = 2  # fresh interpreter starts after every round
IMPORT_SAMPLES = 5
MIN_SAMPLES = 100         # so that at least 10 latencies lie beyond p90
# Each request's latency is its best over the run's rounds, which is what
# keeps the figures steady on a machine whose speed drifts for seconds at a time.
MIN_ROUNDS = 3

QUAD_ZERO = {"cmd": "joint_torsion_quad",
             "payload": {"dim": 1, "a": ["0"], "b": ["0"], "c": ["0"], "d": ["0"]}}


class BenchError(RuntimeError):
    pass


def _env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def _python(root, code, timeout=60) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env(root), cwd=root, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"child python failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def import_ms(root) -> float:
    code = ("import time; t = time.perf_counter(); import jointtorsion.cli; "
            "print(time.perf_counter() - t)")
    return 1000 * statistics.median(float(_python(root, code))
                                     for _ in range(IMPORT_SAMPLES))


def numpy_loaded(root) -> int:
    code = ("import sys, jointtorsion.cli as cli; "
            f"cli.run_request({QUAD_ZERO!r}); print(int('numpy' in sys.modules))")
    return int(_python(root, code))


def run_worker(root, job, deadline) -> dict:
    timeout = deadline - time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=_env(root), cwd=root, timeout=max(timeout, 1))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result) -> dict:
    best = [min(v) for v in result["latencies_s"].values()]
    if len(best) < MIN_SAMPLES:
        raise BenchError(f"only {len(best)} distinct operations completed")
    p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
    return {
        "throughput_ops_s": _metric(len(best) / sum(best), "1/s"),
        "latency_p50_ms": _metric(1000 * statistics.median(best), "ms"),
        "latency_p90_ms": _metric(1000 * p90, "ms"),
        "setup_s": _metric(statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024, "MB"),
    }


# Per-layer metrics: (name, unit, source, key).  "ms" and "self_ms" are span
# seconds per traced operation; "calls" counts spans of the counting round and
# "count" reads a counter of that round, both per operation.
LAYERS = (
    ("cli.run_request.self_ms", "ms", "self_ms", "cli.run_request"),
    ("suites.run_suite.self_ms", "ms", "self_ms", "suites.run_suite"),
    ("suites.threads_started", "count", "count", "suites.threads_started"),
    ("randgen.ms", "ms", "ms", "randgen"),
    ("koszul.joint_torsion_quad.calls", "count", "calls", "koszul.joint_torsion_quad"),
    ("koszul.joint_torsion_quad.ms", "ms", "ms", "koszul.joint_torsion_quad"),
    ("koszul.QuadHomology.ms", "ms", "ms", "koszul.QuadHomology"),
    ("koszul.build_eps_sequences.ms", "ms", "ms", "koszul.build_eps_sequences"),
    ("koszul.perturbation_sigma.ms", "ms", "ms", "koszul.perturbation_sigma"),
    ("koszul.pseudoinv_formula.ms", "ms", "ms", "koszul.pseudoinv_formula"),
    ("complexes.torsion_scalar.ms", "ms", "ms", "complexes.torsion_scalar"),
    ("complexes.BasedExactSequence.ms", "ms", "ms", "complexes.BasedExactSequence"),
    ("complexes.ChainComplexSpec.ms", "ms", "ms", "complexes.ChainComplexSpec"),
    ("linalg.rref.calls", "count", "calls", "linalg.rref"),
    ("linalg.rref.fresh", "count", "count", "linalg.rref.fresh"),
    ("linalg.rref.repeat_content", "count", "count", "linalg.rref.repeat_content"),
    ("linalg.rref.ms", "ms", "ms", "linalg.rref"),
    ("linalg.matmul.calls", "count", "calls", "linalg.matmul"),
    ("linalg.matmul.ms", "ms", "ms", "linalg.matmul"),
    ("linalg.build_subquotient.ms", "ms", "ms", "linalg.build_subquotient"),
    ("linalg.induced_map.ms", "ms", "ms", "linalg.induced_map"),
    ("linalg.in_span.calls", "count", "calls", "linalg.in_span"),
    ("linalg.determinant.calls", "count", "calls", "linalg.determinant"),
    ("linalg.determinant.ms", "ms", "ms", "linalg.determinant"),
    ("scalars.ops", "count", "count", "scalars.ops"),
    ("toeplitz.toeplitz_joint_torsion.ms", "ms", "ms", "toeplitz.toeplitz_joint_torsion"),
    ("toeplitz.tame_symbol.ms", "ms", "ms", "toeplitz.tame_symbol"),
    ("fredholm.numeric_det_invariant.ms", "ms", "ms", "fredholm.numeric_det_invariant"),
    ("fredholm.numeric_det_invariant.self_ms", "ms", "self_ms",
     "fredholm.numeric_det_invariant"),
    ("fredholm.exp_symbol_coeffs.ms", "ms", "ms", "fredholm.exp_symbol_coeffs"),
    ("fredholm.toeplitz_matrix.ms", "ms", "ms", "fredholm.toeplitz_matrix"),
    ("fredholm.bytes_computed", "B", "count", "fredholm.bytes_computed"),
)


def per_layer(layers, root) -> dict:
    ops = layers["traced_ops"]
    counted = layers["counted_ops"]
    counts = layers["counts"]
    calls = layers["calls"]
    out = {
        "cli.import_ms": _metric(import_ms(root), "ms"),
        "cli.numpy_loaded": _metric(numpy_loaded(root), "count"),
    }
    for name, unit, source, key in LAYERS:
        if source == "ms":
            value = 1000 * layers["span_total_s"].get(key, 0.0) / ops
        elif source == "self_ms":
            value = 1000 * layers["span_self_s"].get(key, 0.0) / ops
        elif source == "calls":
            value = calls.get(key, 0) / counted
        else:
            value = counts.get(key, 0) / counted
        out[name] = _metric(value, unit)
    arrays = counts.get("fredholm.toeplitz_matrix.arrays", 0)
    out["fredholm.matrix_dim_mean"] = _metric(
        counts.get("fredholm.toeplitz_matrix.dim_sum", 0) / arrays if arrays else 0,
        "rows")
    out["linalg.entry_bits_max"] = _metric(counts.get("linalg.entry_bits_max", 0),
                                           "bits")
    plain, traced = layers["plain_best_s"], layers["traced_best_s"]
    both = [t for t in plain if t in traced]
    out["trace.overhead_pct"] = _metric(
        100 * (sum(traced[t] for t in both) / sum(plain[t] for t in both) - 1)
        if both else 0.0, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jointtorsion", "cli.py")):
        print("run from the root of a jointtorsion checkout (src/jointtorsion "
              "not found)", file=sys.stderr)
        return 2

    entries = workloads.make_round(args.workload, args.seed)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    job = {"root": root, "entries": entries, "seconds": args.seconds,
           "min_rounds": MIN_ROUNDS,
           "setup_probes_per_round": SETUP_PROBES_PER_ROUND,
           "trace": bool(args.trace),
           "trace_path": os.path.join(
               out_dir, f"trace-{args.workload}-seed{args.seed}.json")}
    try:
        _python(root, "import jointtorsion.cli")  # compiles bytecode once
        result = run_worker(root, job, deadline)
        if args.trace:
            metrics = per_layer(result["layers"], root)
        else:
            metrics = end_to_end(result)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    responses = [result["responses"].get(e["text"]) for e in entries]
    problems = checks.check_round(entries, responses)
    kinds = {e["text"]: e["kind"] for e in entries}
    problems += [f"{kinds[t]}: repeated request gave different bytes"
                 for t in result["mismatched"]]
    for err in result["errors"]:
        print(f"failed: {err['error']} ({err['request']})", file=sys.stderr)
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)

    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
