"""Closed-loop benchmark of the arczeta command line, driven in-process.

    python3 perfbench/run.py --workload series --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the package is imported from ./src.  One
client sends one `arczeta.cli.run(argv)` request at a time and waits for
it (a closed loop, one thread).  Each request stands for one CLI process
after import: every functools cache in the package is emptied first, and
stdout and stderr are captured in memory.  Before anything is timed the
seeded pool of distinct requests is run once, in a forked child so that
the checks add nothing to peak_rss_mb, and every output is checked by an
independent route (see workloads.py); in the timed phase the pool is
cycled and each output must equal, byte for byte, the checked output of
the same argv.  A request fails on a nonzero exit, an escaping exception
or a wrong output; it is counted, never retried.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
times the trace set untraced, then again with spans recorded around every
call into the five layers (spans.py), and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it repeat every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("series", "germ", "selfcheck")

# Fresh interpreters timed importing the package; the median is setup_s.
# They are spread evenly over the timed phase, so that a slow spell of the
# machine weighs on setup_s no more than on the request times.
SETUP_RUNS = 41
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import arczeta, arczeta.cli; print(time.perf_counter() - start)"
)

# The traced pass runs the first N requests of the cycled pool (None: the
# pool once).  A fixed count, never a time budget, so that every per-layer
# count repeats exactly; series is cut to keep its spans near 2 million.
TRACE_REQUESTS = {"series": 48, "germ": None, "selfcheck": 3}


def import_seconds() -> float:
    """Time to import arczeta and arczeta.cli in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


class Harness:
    """Runs one request the way a fresh CLI process would."""

    def __init__(self, arczeta):
        self.arczeta = arczeta
        self.caches = _discover_caches()

    def cache_usage(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per layer since the caches were last cleared."""
        usage: dict[str, tuple[int, int]] = {}
        for layer, cache in self.caches:
            info = cache.cache_info()
            hits, misses = usage.get(layer, (0, 0))
            usage[layer] = (hits + info.hits, misses + info.misses)
        return usage

    def execute(self, request):
        """(seconds, exit code, stdout, traceback or None) of one request."""
        for _, cache in self.caches:
            cache.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code, error = self.arczeta.cli.run(list(request.argv)), None
            except Exception:
                code, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
        return elapsed, code, stdout.getvalue(), error


def _discover_caches():
    """Every module attribute in the package with cache_info and cache_clear."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "arczeta" or name.startswith("arczeta."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)) and callable(
                    getattr(value, "cache_clear", None)
                ):
                    found[id(value)] = value
    return [(cache.__module__.rsplit(".", 1)[-1], cache) for cache in found.values()]


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode()).digest()


def verify_pool(harness, pool, check, failure_log):
    """Run each request once and check it; returns the digests of good outputs."""
    digests = []
    for request in pool:
        _, code, output, error = harness.execute(request)
        reason = None
        if error is not None:
            reason = error.strip().splitlines()[-1]
        elif code != 0:
            reason = f"exit code {code}: {output.strip()[:200]}"
        else:
            try:
                check(request, output)
            except Exception as exc:  # a broken check must not stop the run
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failure_log.append(f"{' '.join(request.argv)[:160]}: {reason}")
        digests.append(_digest(output) if reason is None else None)
    return digests


def verify_pool_in_child(harness, pool, check, failure_log):
    """verify_pool in a forked child, so the checks' memory stays out of peak_rss_mb."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            failures = []
            digests = verify_pool(harness, pool, check, failures)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump((digests, failures), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"the checking process ended with status {status}")
    digests, failures = pickle.loads(payload)
    failure_log.extend(failures)
    return digests


def timed_phase(harness, pool, digests, seconds, tamper=None, probes=0):
    """Cycle the pool until `seconds` of request time.

    Returns (latencies, attempted, failed, timed, import times): `probes`
    import_seconds() probes run between requests, one each time another
    1/probes of the request time has passed, outside the request times.
    """
    latencies, failed, timed = [], 0, 0.0
    attempted = 0
    imports = []
    while timed < seconds:
        index = attempted % len(pool)
        elapsed, code, output, error = harness.execute(pool[index])
        if tamper is not None:
            output = tamper(pool[index], output)
        attempted += 1
        timed += elapsed
        if code == 0 and error is None and digests[index] == _digest(output):
            latencies.append(elapsed)
        else:
            failed += 1
        while len(imports) < probes and len(imports) < probes * timed / seconds:
            imports.append(import_seconds())
    return latencies, attempted, failed, timed, imports


def percentile(values, share):
    """Linear interpolation between closest ranks (statistics' inclusive method)."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(latencies, timed, setup_s):
    return {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "throughput_rps": (len(latencies) / timed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, cache_counts, requests, exit_nonzero, overhead_ratio):
    totals = tracer.totals()

    def calls(*names):
        return sum(totals[n]["calls"] for n in names if n in totals)

    def self_s(*names):
        return sum(totals[n]["self_s"] for n in names if n in totals)

    def owned_s(*names):
        return sum(totals[n]["owned_s"] for n in names if n in totals)

    def weight(name):
        return totals[name]["weight"] if name in totals else 0

    def layer_self_s(layer):
        return self_s(*(n for n in totals if n.startswith(layer + ".")))

    def hits_ratio(layer):
        hits, misses = cache_counts.get(layer, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    scissor_hits, scissor_misses = cache_counts.get("scissor", (0, 0))
    stratify_calls = calls("arcspace.stratify")
    distinct = len(tracer.stratify_keys)
    closed_forms = ("arcspace.coefficient_closed_form", "arcspace.zeta_closed_form")
    return {
        "cli.run.self_s": (owned_s("cli.run"), "s"),
        "cli.requests": (requests, "count"),
        "cli.exit_nonzero": (exit_nonzero, "count"),
        "algebra.laurent_new.calls": (calls("algebra.LaurentPolynomial.__init__"), "count"),
        "algebra.laurent_mul.calls": (calls("algebra.LaurentPolynomial.__mul__"), "count"),
        "algebra.laurent_mul.term_pairs": (weight("algebra.LaurentPolynomial.__mul__"), "count"),
        "algebra.laurent_add.calls": (calls("algebra.LaurentPolynomial.__add__"), "count"),
        "algebra.self_s": (layer_self_s("algebra"), "s"),
        "scissor.beta_eval.calls": (calls("scissor.beta_eval"), "count"),
        "scissor.beta_eval.self_s": (owned_s("scissor.beta_eval"), "s"),
        "scissor.cache.hits": (scissor_hits, "count"),
        "scissor.cache.misses": (scissor_misses, "count"),
        "scissor.cache.hit_ratio": (hits_ratio("scissor"), "ratio"),
        "arcspace.stratify.calls": (stratify_calls, "count"),
        "arcspace.stratify.self_s": (owned_s("arcspace.stratify"), "s"),
        "arcspace.strata": (weight("arcspace.stratify"), "count"),
        "arcspace.stratify.redundancy": (stratify_calls / distinct if distinct else 0.0, "ratio"),
        "arcspace.closed_form.calls": (calls(*closed_forms), "count"),
        "arcspace.closed_form.self_s": (owned_s(*closed_forms), "s"),
        "arcspace.zeta_series.calls": (calls("arcspace.zeta_series"), "count"),
        "arcspace.cache.hit_ratio": (hits_ratio("arcspace"), "ratio"),
        "germ.parse.self_s": (owned_s("germ.parse_germ"), "s"),
        "germ.inertia.self_s": (owned_s("germ.hessian_inertia", "germ.congruence_diagonalize"), "s"),
        "germ.charpoly.self_s": (owned_s("germ.charpoly_inertia"), "s"),
        "germ.split_jet.self_s": (owned_s("germ.split_jet"), "s"),
        "germ.verify_split.self_s": (owned_s("germ.verify_split"), "s"),
        "germ.discriminate.self_s": (owned_s("germ.discriminate"), "s"),
        "germ.polygerm_new.calls": (calls("germ.PolynomialGerm.__init__"), "count"),
        "germ.substitute.calls": (calls("germ.PolynomialGerm.substitute"), "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def traced_pass(arczeta, harness, pool, digests, trace_set):
    """Each request of trace_set untraced, then traced; (tracer, metrics, attempted, failed).

    The two runs of a request are adjacent, so drift in the machine's speed
    cancels out of trace.overhead_ratio.
    """
    tracer = spans.Tracer()
    classes = (
        arczeta.algebra.LaurentPolynomial,
        arczeta.algebra.TruncatedSeries,
        arczeta.germ.PolynomialGerm,
    )
    untraced, traced, failed, exit_nonzero = [], [], 0, 0
    cache_counts: dict[str, tuple[int, int]] = {}
    for request_id, index in enumerate(trace_set):
        untraced.append(harness.execute(pool[index])[0])
        tracer.request[0] = request_id
        restore = tracer.install(arczeta, classes)
        try:
            elapsed, code, output, error = harness.execute(pool[index])
            usage = harness.cache_usage()
        finally:
            restore()
        traced.append(elapsed)
        exit_nonzero += code != 0
        failed += code != 0 or error is not None or digests[index] != _digest(output)
        for layer, (hits, misses) in usage.items():
            old_hits, old_misses = cache_counts.get(layer, (0, 0))
            cache_counts[layer] = (old_hits + hits, old_misses + misses)
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics = per_layer(tracer, cache_counts, len(trace_set), exit_nonzero, overhead)
    return tracer, metrics, len(trace_set), failed


def run_workload(arczeta, workload, seed, seconds, trace):
    """Run one workload; returns (result dict, lines to print before it)."""
    import workloads  # imports arczeta, so only once src/ is on the path

    pool = workloads.POOLS[workload](seed)
    harness = Harness(arczeta)
    failures = []
    digests = verify_pool_in_child(harness, pool, workloads.check, failures)
    lines = [f"{workload}: seed {seed}, pool of {len(pool)} distinct requests"]
    lines += [f"  check failed: {failure}" for failure in failures]

    if not trace:
        import_seconds()  # compiles the bytecode cache, as an installed package has it
        latencies, attempted, failed, timed, imports = timed_phase(
            harness, pool, digests, seconds, probes=SETUP_RUNS
        )
        metrics = end_to_end(latencies or [0.0], timed, statistics.median(imports))
        lines.append(
            f"  timed phase: {attempted} requests, {failed} failed "
            f"(failed_share {failed / attempted:.4f}), {timed:.2f} s of request time; "
            f"percentiles over {len(latencies)} samples; setup_s over {len(imports)} imports"
        )
    else:
        trace_set = [i % len(pool) for i in range(TRACE_REQUESTS[workload] or len(pool))]
        tracer, metrics, attempted, failed = traced_pass(arczeta, harness, pool, digests, trace_set)
        path = OUT / f"spans-{workload}.bin"
        tracer.write(path)
        lines.append(
            f"  traced pass: {attempted} requests, {failed} failed; "
            f"{len(tracer.spans['end'])} spans written to {path.relative_to(ROOT)}"
        )

    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def run_all(seed, seconds):
    """Every workload with and without tracing, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            print(done.stdout.rstrip("\n").rpartition("\n")[0] or done.stderr.strip(), flush=True)
            if done.returncode != 0:
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arczeta" / "cli.py").is_file():
        print(f"perfbench: no arczeta sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import arczeta
    import arczeta.cli

    if Path(arczeta.__file__).resolve().parent != SRC / "arczeta":
        print(f"perfbench: imported arczeta from {arczeta.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(arczeta, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
