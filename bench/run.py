"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fw-small --seed 1 --seconds 30 --trace 0

Run from anywhere; the benchmark measures the flipwidth package under the
src/ directory next to bench/ and refuses to run without it.  One process,
one thread, closed loop: the workload's fixed batch of operations runs as
whole rounds, one operation at a time, for about --seconds (see measure).

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, whose rounds alternate between untraced and traced.  Answers
of the first round are checked; later rounds must repeat them exactly.
The result and, for traced runs, the spans are also written under
bench/results/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
# set up at least SETUP_REPEATS times and until SETUP_SECONDS have passed:
# a cheap set-up is repeated often enough for its median to hold still,
# an expensive one (a warm-up solve of seconds) only three times
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0


def use_checkout_package():
    """Import flipwidth from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "flipwidth", "__init__.py")):
        raise SystemExit(f"bench: no flipwidth package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import flipwidth
    if os.path.dirname(os.path.dirname(os.path.abspath(flipwidth.__file__))) != SRC:
        raise SystemExit(f"bench: flipwidth imported from {flipwidth.__file__}, "
                         f"not from {SRC}")


def cpu_seconds():
    """User plus system CPU time of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def import_seconds():
    """Interpreter start-up plus importing numpy and flipwidth, measured on a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, flipwidth.cli, flipwidth.bulk"],
                   cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup(workloads, name, seed):
    """Set up repeatedly (see SETUP_SECONDS): start-up and imports, building
    the inputs and one untimed warm-up operation.  Returns the last
    workload, the median set-up time and the warm-up's answer."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl = workloads.build(name, seed)
        warm = dict(wl.ops)[wl.warmup]()
        times.append(t_import + time.perf_counter() - t0)
    return wl, statistics.median(times), warm


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.wall = self.cpu = 0.0
        self.latencies = []
        self.answers = {}
        self.spans = None


def run_round(wl, tracer, traced):
    rnd = Round(traced)
    if traced:
        tracer.install()
        first = len(tracer.spans)
    failed = 0
    try:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        for i, (key, op) in enumerate(wl.ops):
            if traced:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                answer = op()
            except Exception:
                failed += 1
                print(f"bench: {wl.name} operation {key} failed:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                rnd.latencies.append(time.perf_counter() - t0)
            rnd.answers[key] = answer
        rnd.wall = time.perf_counter() - wall0
        rnd.cpu = cpu_seconds() - cpu0
    finally:
        if traced:
            tracer.uninstall()
            rnd.spans = range(first, len(tracer.spans))
    return rnd, failed


def measure(wl, seconds, trace):
    """Run whole rounds of the batch while one more round, at the median
    round time so far, still ends within `seconds`; always one round, and
    in a traced run, which alternates untraced and traced rounds, two."""
    import spans
    tracer = spans.Tracer()
    rounds, attempted, failed = [], 0, 0
    violations = []
    reference = None
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        tracer.round = len(rounds)
        rnd, bad = run_round(wl, tracer, traced)
        attempted += len(wl.ops)
        failed += bad
        if reference is None:
            reference = rnd.answers
            violations += wl.check(reference)
        else:
            violations += [f"operation {key} answered differently in round {len(rounds)}"
                           for key, answer in rnd.answers.items()
                           if key in reference and reference[key] != answer]
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        more = elapsed + statistics.median(r.wall for r in rounds) <= seconds
        if not more and (not trace or len(rounds) >= 2):
            break
    return rounds, attempted, failed, violations, tracer


def op_latencies(rounds):
    """Each operation's median latency over the given rounds.  A burst of
    load on a shared host slows some rounds of an operation, not most."""
    return [statistics.median(column) for column in zip(*(r.latencies for r in rounds))]


def end_to_end(rounds, setup_s):
    plain = [r for r in rounds if not r.traced]
    latencies = op_latencies(plain)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in plain), "s"),
        "cpu_s": (statistics.median(r.cpu for r in plain), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(rounds, tracer):
    import spans
    traced = [r for r in rounds if r.traced]
    per_round = [spans.layer_metrics(tracer.spans, r.spans) for r in traced]
    out = {}
    for name, (_, unit) in per_round[0].items():
        out[name] = (statistics.median(m[name][0] for m in per_round), unit)
    overhead = (statistics.median(r.wall for r in traced)
                - statistics.median(r.wall for r in rounds if not r.traced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    use_checkout_package()
    sys.path.insert(0, BENCH)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    wl, setup_s, warm_answer = setup(workloads, ns.workload, ns.seed)
    rounds, attempted, failed, violations, tracer = measure(wl, ns.seconds, ns.trace)
    if rounds[0].answers.get(wl.warmup, warm_answer) != warm_answer:
        violations.append(f"warm-up operation {wl.warmup} answered differently")
    for v in violations:
        print(f"bench: {ns.workload}: check failed: {v}", file=sys.stderr)
    metrics = per_layer(rounds, tracer) if ns.trace else end_to_end(rounds, setup_s)
    for missing in tracer.missing:
        print(f"bench: {missing} not found; its layer reads 0", file=sys.stderr)
    result = {"correct": not violations, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{ns.workload}-seed{ns.seed}-trace{ns.trace}")
    with open(stem + ".json", "w") as f:
        rounds_json = [{"traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu,
                        "op_ms": [1000 * t for t in r.latencies]} for r in rounds]
        json.dump(dict(result, ops=[repr(key) for key, _ in wl.ops], rounds=rounds_json),
                  f, indent=1)
    if ns.trace:
        tracer.write(stem + ".spans.jsonl", tracer.spans[0].start if tracer.spans else 0.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
