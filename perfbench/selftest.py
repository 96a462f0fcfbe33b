"""Checks of the benchmark's own checks and counters.

    python3 perfbench/selftest.py

Run from the repository root.  It asserts that

* every output check rejects a corrupted answer of its request kind, and a
  corrupted answer in the timed phase is counted as failed, once per kind;
* the germ workload makes no call into algebra, scissor or arcspace;
* every per-layer count repeats exactly between two traced passes, and
  the spans file reads back as written.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
import spans

sys.path.insert(0, str(run.SRC))

import arczeta  # noqa: E402
import arczeta.cli  # noqa: E402
import workloads  # noqa: E402


def _corrupt_zeta(payload):
    coefficient = payload["series"]["terms"][-1][1][0]
    coefficient[1] = str(int(coefficient[1]) + 1)


def _corrupt_discriminate(payload):
    if payload["verdict"] == "distinguished":
        payload["verdict"] = "not_distinguished_up_to"
        del payload["selector"], payload["n"]
    else:
        payload.update(verdict="distinguished", selector="naive", n=2)


def _corrupt_inertia(payload):
    payload["s"], payload["t"] = payload["t"] + 1, payload["s"]
    payload["index"] = payload["t"]


def _corrupt_split(payload):
    square = payload["quadratic_part"]["terms"][0]
    square[1] = str(-Fraction(square[1]))


def _corrupt_selfcheck(payload):
    payload["checks"][0]["count"] += 1


CORRUPT = {
    "zeta": _corrupt_zeta,
    "discriminate": _corrupt_discriminate,
    "inertia": _corrupt_inertia,
    "split": _corrupt_split,
    "selfcheck": _corrupt_selfcheck,
}


def corrupted(output: str, kind: str) -> str:
    payload = json.loads(output)
    CORRUPT[kind](payload)
    return json.dumps(payload, sort_keys=True)


def one_of_each_kind(seed: int) -> list:
    """The request with the shortest argv of each kind, selfcheck last."""
    chosen = {}
    for request in workloads.series_pool(seed) + workloads.germ_pool(seed):
        best = chosen.get(request.kind)
        if best is None or len(" ".join(request.argv)) < len(" ".join(best.argv)):
            chosen[request.kind] = request
    kinds = ("zeta", "discriminate", "inertia", "split")
    return [chosen[kind] for kind in kinds] + workloads.selfcheck_pool(seed)


def check_corruptions(harness, pool):
    for request in pool:
        _, code, output, error = harness.execute(request)
        assert code == 0 and error is None, (request.argv, output, error)
        workloads.check(request, output)
        try:
            workloads.check(request, corrupted(output, request.kind))
        except workloads.CheckFailed:
            continue
        raise AssertionError(f"{request.kind}: a corrupted answer passed its check")
    print(f"ok: each of {len(pool)} checks rejects a corrupted answer")


def check_failure_counting(harness, pool):
    failures = []
    digests = run.verify_pool(harness, pool, workloads.check, failures)
    assert not failures, failures
    tampered = []

    def tamper(request, output):
        if request.kind in tampered:
            return output
        tampered.append(request.kind)
        return corrupted(output, request.kind)

    latencies, attempted, failed, _, _ = run.timed_phase(harness, pool, digests, 1.5, tamper)
    assert failed == len(tampered) == len(pool), (failed, tampered)
    assert len(latencies) == attempted - failed and attempted > failed, (attempted, failed)
    print(f"ok: {failed} corrupted answers counted, failed_share {failed / attempted:.3f}")


def check_germ_layers(harness):
    pool = workloads.germ_pool(1)
    digests = run.verify_pool(harness, pool, workloads.check, [])
    _, metrics, _, failed = run.traced_pass(arczeta, harness, pool, digests, range(len(pool)))
    assert failed == 0
    foreign = {
        name: value
        for name, (value, unit) in metrics.items()
        if name.split(".")[0] in ("algebra", "scissor", "arcspace") and value
    }
    assert not foreign, foreign
    print("ok: the germ workload makes no algebra, scissor or arcspace call")


def check_counts_repeat(harness):
    pool = [r for r in workloads.series_pool(2) if r.spec["order"] <= 12]
    pool += workloads.germ_pool(2)[:8]
    digests = run.verify_pool(harness, pool, workloads.check, [])
    counts = []
    for _ in range(2):
        tracer, metrics, _, failed = run.traced_pass(
            arczeta, harness, pool, digests, range(len(pool))
        )
        assert failed == 0
        counts.append({n: v for n, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1], (counts[0], counts[1])
    print(f"ok: {len(counts[0])} per-layer counts repeat exactly")

    path = run.OUT / "spans-selftest.bin"
    tracer.write(path)
    names, fields = spans.read_spans(path)
    path.unlink()
    assert names == tracer.names and fields == tracer.spans
    print(f"ok: {len(fields['end'])} spans read back as written")


def main() -> int:
    harness = run.Harness(arczeta)
    pool = one_of_each_kind(1)
    check_corruptions(harness, pool)
    check_failure_counting(harness, pool)
    check_germ_layers(harness)
    check_counts_repeat(harness)
    return 0


if __name__ == "__main__":
    sys.exit(main())
