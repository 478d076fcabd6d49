#!/usr/bin/env python3
"""The linewidth benchmark: one workload, measured end to end or traced.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout.  It runs the source tree as checked out
(``src`` first on the import path, as the tests do) and builds and installs
nothing, so whichever kernel backend ``linewidth.KERNEL_BACKEND`` selects is
the one measured; it is printed with the run metadata.

Every workload is a closed loop with one client: one operation after
another, no concurrency, until the operations have taken ``--seconds`` in
total and at least 100 were attempted (whole rounds, see ``workloads.py``).
Every output is checked and hashed outside the timed region.  For the
default seed the hashes must match ``digests.json`` (regenerate it with
``record_digests.py`` only when an output change is intended); for other
seeds a repeated input must hash the same.  A check failure, a digest
mismatch or an exception is a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then the same rounds again with spans recorded around the
public functions of every layer, and prints the per-layer metrics (per
operation) and the tracing overhead between the two halves.  Spans are
written to ``.perfbench_work/<workload>/spans*.bin`` (format in ``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metadata and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
MIN_SAMPLES = 100  # so that at least ten latencies lie beyond the p90
CLI_START_REPEATS = 7


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Latencies and failures of the operations of one phase."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, successful operations
        self.busy = 0.0  # seconds in operations, failed ones included
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, key: str, why: str) -> None:
        if len(self.failures) < 20:
            print(f"FAILED {key}: {why}", file=sys.stderr)
        self.failures.append(key)


class DigestGuard:
    """Byte-identity guard over the rendered outputs: against the reference
    digests when given, otherwise against earlier runs of the same input."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.seen: dict[str, str] = {}

    def check(self, key: str, text: str) -> str | None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        if self.reference is None:
            want = self.seen.setdefault(key, digest)
        else:
            want = self.reference.get(key)
            if want is None:
                return "no reference digest"
        if want != digest:
            return f"digest {digest} differs from the expected {want}"
        return None


def run_rounds(rounds, budget_s, guard: DigestGuard, tally: Tally, rec=None, min_ops: int = 0):
    """Run whole rounds, cycling through the pool, until the operations have
    taken ``budget_s`` seconds and at least ``min_ops`` were attempted; run
    each of ``rounds`` exactly once when ``budget_s`` is None.  Returns the
    rounds that ran."""
    ran = []
    i = 0
    while True:
        rnd = rounds[i % len(rounds)]
        for op in rnd.ops:
            tally.attempted += 1
            if rec is not None:
                rec.active = True
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed operation; the run goes on
                dt = perf_counter() - t0
                if rec is not None:
                    rec.active = False
                tally.busy += dt
                tally.fail(op.key, traceback.format_exc(limit=2).strip().splitlines()[-1])
                continue
            dt = perf_counter() - t0
            if rec is not None:
                rec.active = False
            tally.busy += dt
            try:
                op.check(out)
                problem = guard.check(op.key, op.render(out))
            except Exception:  # checks report, they do not stop the run
                problem = traceback.format_exc(limit=2).strip().splitlines()[-1]
            if problem:
                tally.fail(op.key, problem)
            else:
                tally.latencies.append(dt)
        rnd.state.clear()
        ran.append(rnd)
        i += 1
        if budget_s is None:
            if i == len(rounds):
                return ran
        elif tally.busy >= budget_s and tally.attempted >= min_ops:
            return ran


def setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Median over fresh processes of imports plus input generation."""
    from workloads import child_env

    times = []
    for k in range(SETUP_REPEATS):
        probe = WORK / f"setup-{workload}-{k}"
        cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), "1" if tiny else "0", str(probe)]
        out = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
        shutil.rmtree(probe, ignore_errors=True)
    return statistics.median(times)


def cli_start_ms() -> float:
    """Median wall time of a fresh `python -m linewidth.cli --version`."""
    from workloads import child_env

    times = []
    for _ in range(CLI_START_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "linewidth.cli", "--version"], env=child_env(),
                       capture_output=True, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linewidth").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _metadata(args, linewidth) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "kernel_backend": linewidth.KERNEL_BACKEND,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "builds": "nothing",
    }


def _peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(args, wl, guard) -> tuple[Tally, dict]:
    tally = Tally()
    ran = run_rounds(wl.rounds, args.seconds, guard, tally, min_ops=0 if args.tiny else MIN_SAMPLES)
    peak = _peak_rss_mb(wl.cli_runner is not None)  # before the set-up probes run
    lat = tally.latencies
    if len(lat) < 2:
        raise SystemExit("error: fewer than two successful operations; no latency quantiles")
    ok = len(lat)
    values = {
        "ops_per_s": ok / tally.busy,
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": peak,
        "setup_s": setup_seconds(args.workload, args.seed, args.tiny),
    }
    beyond = sum(1 for x in lat if x * 1e3 > values["op_ms_p90"])
    print(f"samples {ok} in {len(ran)} rounds; {beyond} beyond p90")
    return tally, values


def per_layer(args, wl, guard) -> tuple[Tally, dict]:
    from tracing import Recorder, Totals, read_spans

    plain = Tally()
    ran = run_rounds(wl.rounds, args.seconds / 2, guard, plain)
    traced = Tally()
    totals = Totals()
    if wl.cli_runner is None:
        rec = Recorder()
        rec.install(callers=[sys.modules["workloads"]])
        try:
            run_rounds(ran, None, guard, traced, rec)
        finally:
            rec.uninstall()
        rec.write(WORK / args.workload / "spans.bin")
        totals.add(rec.header(), rec.name, rec.parent, rec.start, rec.end)
    else:
        spans_dir = WORK / args.workload / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        wl.cli_runner.spans_dir = spans_dir
        run_rounds(ran, None, guard, traced)
        for path in sorted(spans_dir.glob("spans-*.bin")):
            header, cols = read_spans(path)
            totals.add(header, *cols)
    ops = max(1, traced.attempted)
    values = totals.layer_metrics(ops)
    values["cli.start_ms"] = cli_start_ms()
    values["trace.op_ms"] = traced.busy / ops * 1e3
    values["trace.overhead_frac"] = traced.busy / plain.busy - 1.0
    print(f"traced {traced.attempted} operations in {len(ran)} rounds")
    both = Tally()
    both.attempted = plain.attempted + traced.attempted
    both.failures = plain.failures + traced.failures
    return both, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linewidth" / "__init__.py").is_file():
        print(f"error: no linewidth source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path[:0] = [str(ROOT / "src")]
    import linewidth
    import workloads

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, WORK / args.workload / "inputs")
    reference = None
    if args.seed == DEFAULT_SEED:
        with open(HERE / "digests.json", encoding="ascii") as fh:
            reference = json.load(fh).get(args.workload + ("/tiny" if args.tiny else ""), {})
    guard = DigestGuard(reference)

    print("meta " + json.dumps(_metadata(args, linewidth), sort_keys=True))
    if args.trace:
        tally, values = per_layer(args, wl, guard)
        wanted = spec["per_layer"]
    else:
        tally, values = end_to_end(args, wl, guard)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        print(f"metric {m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}")
    failed = len(tally.failures)
    print(f"failed {failed} of {tally.attempted} operations (failed_frac {failed / max(1, tally.attempted):.6g})")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
