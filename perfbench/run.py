"""burneq benchmark runner.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run all three, each in its own process, and print one table:

    python3 perfbench/run.py all --seed 1

Compare two sets of result files:

    python3 perfbench/run.py compare DIR_A DIR_B

One process, one thread, one closed-loop client: each op starts when the
previous one has finished. The last line of stdout is the JSON result; the
lines above it print every metric by name with its unit. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_BUDGET_S = 30.0
MIN_PASSES = 3  # each op's time is its best of at least this many passes
SETUPS = 3  # cold set-ups per run; setup_s is their median
# Best time of `reference()` on the machine the benchmark was defined on
# (Intel Xeon, 2 vCPUs of a shared host, Python 3.11.7). End-to-end times
# are scaled to that speed; see README.md.
REFERENCE_S = 0.0122
REFERENCE_EVERY = 10  # ops between two timings of the reference job
ONCE, SETUP = 0, 1  # tracer op ids for smoke/oracle work and for set-ups
WORKLOADS = ("lattice", "product", "realize")


class OpTimeout(BaseException):
    """Raised by the alarm when an op runs past its budget."""


def _alarm(signum, frame):
    raise OpTimeout()


def with_budget(seconds: float, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_library():
    """Import burneq from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import burneq
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import burneq from {ROOT / 'src'}: {exc}")
    if Path(burneq.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: burneq resolved outside this checkout: {burneq.__file__}")


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------- measuring

def reference():
    """A fixed job in the library's idiom, without the library: a permutation
    closure on tuples and sets, then exact Fraction matrix products."""
    gens = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]
    elems, seen = [tuple(range(7))], {tuple(range(7))}
    for x in elems:
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    m = [[Fraction(i + 1, j + 2) for j in range(8)] for i in range(8)]
    for _ in range(3):
        m = [[sum(a * b for a, b in zip(r, c)) for c in zip(*m)] for r in m]
    return len(elems), m[0][0]


REFERENCE_RESULT = (5040, Fraction(219942040354869442140369836351, 1290725175842242560000000))


class Runner:
    """Runs ops under the per-op budget, checks them and keeps the outcome."""

    def __init__(self, budget_s: float, tracer=None):
        self.budget_s = budget_s
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.oracle_done: set[str] = set()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.op_ids: list[int] = []  # tracer op ids of the complete passes
        self.passes = 0
        self.reference_times: dict[int, list[float]] = {}  # by slot in the pass

    def time_reference(self, slot: int) -> None:
        start = perf_counter()
        out = reference()
        self.reference_times.setdefault(slot, []).append(perf_counter() - start)
        if out != REFERENCE_RESULT:
            self.failures.append(f"reference job gave {out}")

    def reference_best(self) -> float:
        """The reference job's best time, taken the way an op's is: the best
        over the passes of each slot, then the median over the slots."""
        return statistics.median(min(v) for v in self.reference_times.values())

    def _record(self, op_id: int) -> None:
        if self.tracer is not None:
            self.tracer.current_op = op_id

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def run_op(self, op, op_id: int) -> float:
        """Time one op, then gate it; returns the op's seconds."""
        self.attempted += 1
        start = perf_counter()
        elapsed = None
        try:
            self._record(op_id)
            raw = with_budget(self.budget_s, op.run)
            elapsed = perf_counter() - start
            self._record(-1)
            out = with_budget(self.budget_s, op.check, raw)
            if op.oracle is not None and op.key not in self.oracle_done:
                self._record(ONCE)
                with_budget(self.budget_s, op.oracle, raw)
                self.oracle_done.add(op.key)
        except OpTimeout:
            self._fail(f"{op.key}: over the {self.budget_s:g} s budget")
        except Exception as exc:  # a wrong or crashing op is counted, the run goes on
            self._fail(f"{op.key}: {type(exc).__name__}: {exc}")
        else:
            digest = hashlib.sha256(repr(out).encode()).hexdigest()
            if self.digests.setdefault(op.key, digest) != digest:
                self._fail(f"{op.key}: output differs from the earlier pass")
        finally:
            self._record(-1)
        return elapsed if elapsed is not None else perf_counter() - start

    def measure(self, workload, seconds: float, min_passes: int, max_passes=None,
                setups: int = SETUPS):
        """Set up, run passes over the ops, and repeat; returns (set-up seconds, op seconds by key).

        The first `setups` cycles each set up afresh and run one pass on the
        new ops; later cycles run the last set-up's ops again. So every op
        is timed once per pass, at many moments of the run, and its best
        time rides out the shared machine's slow spells. `seconds` counts
        the passes only: a new pass starts while it would still fit, and
        always until `min_passes` passes are complete. Only complete passes
        count; past twice `seconds` the run stops, and a run without one
        complete pass fails.
        """
        setup_times, by_key, passes = [], {}, 0
        ops, times = [], []
        spent = last = 0.0  # seconds spent in passes, and in the last one
        while True:
            if len(setup_times) < setups:
                setup_start = perf_counter()
                self._record(SETUP)
                ops = with_budget(SETUP_BUDGET_S, workload.setup)
                self._record(-1)
                setup_times.append(perf_counter() - setup_start)
            pass_start = perf_counter()
            hard_deadline = pass_start - spent + 2 * seconds
            base = self.tracer.next_op if self.tracer is not None else 0
            times = []
            for k, op in enumerate(ops):
                if perf_counter() >= hard_deadline:
                    break
                if k % REFERENCE_EVERY == 0:
                    self.time_reference(k // REFERENCE_EVERY)
                times.append(self.run_op(op, base + k))
            if self.tracer is not None:
                self.tracer.next_op += len(times)
            if len(times) < len(ops):
                break
            passes += 1
            self.op_ids.extend(range(base, base + len(ops)))
            for op, t in zip(ops, times):
                by_key.setdefault(op.key, []).append(t)
            last = perf_counter() - pass_start
            spent += last
            if passes == max_passes or (passes >= min_passes and spent + last > seconds):
                break
        if not by_key:
            self.failures.append(f"no complete pass in {2 * seconds:g} s")
            by_key = {op.key: [t] for op, t in zip(ops, times)}
        self.passes = passes
        return setup_times, by_key


def smoke(workdir: Path, seed: int, workloads, tracer=None) -> list[str]:
    """One gated op of every workload on Z/2; returns the failure messages."""
    failures = []
    for w in workloads.smoke_workloads(seed, workdir / "smoke"):
        runner = Runner(w.op_budget_s, tracer)
        runner._record(ONCE)
        ops = with_budget(SETUP_BUDGET_S, w.setup)
        for op in ops:
            runner.run_op(op, ONCE)
        failures += [f"smoke {w.name} {message}" for message in runner.failures]
    return failures


# ---------------------------------------------------------------- one run

def run_workload(args) -> int:
    import_library()
    import tracer as tracing
    import workloads

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "loadavg_start": list(os.getloadavg()),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    signal.signal(signal.SIGALRM, _alarm)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (workdir / "smoke").mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    try:
        w = cls(args.seed, workdir)
        runner = Runner(cls.op_budget_s)
        if args.trace:
            # as many untraced passes as fit in half the time, then as many traced
            _, untraced = runner.measure(w, args.seconds / 2, 1, setups=1)
            passes = runner.passes
            tracer = tracing.Tracer()
            tracer.install()
            runner.failures += smoke(workdir, args.seed, workloads, tracer)
            runner.tracer, runner.op_ids = tracer, []
            runner.oracle_done.clear()  # so the traced passes run the oracle too
            setup_times, traced = runner.measure(w, args.seconds, passes, passes, setups=1)
            metrics = per_layer(tracer, runner, len(setup_times), untraced, traced)
        else:
            runner.failures += smoke(workdir, args.seed, workloads)
            setup_times, by_key = runner.measure(w, args.seconds, MIN_PASSES)
            reference_best = runner.reference_best()
            metrics = end_to_end(setup_times, by_key, REFERENCE_S / reference_best)
            meta.update(passes=runner.passes, setup_times=setup_times,
                        op_best_ms={k: 1000 * min(v) for k, v in sorted(by_key.items())},
                        reference_best_ms=1000 * reference_best,
                        unscaled={k: v for k, (v, _) in end_to_end(setup_times, by_key, 1).items()})
    except (Exception, OpTimeout) as exc:
        print(f"perfbench: {args.workload} failed outside an op: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256(
        "".join(f"{k}={v}\n" for k, v in sorted(runner.digests.items())).encode()
    ).hexdigest()
    failed_share = runner.failed / max(runner.attempted, 1)
    correct = not runner.failures
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = dict(meta, digest=digest, failed_ops=failed_share, failures=runner.failures,
                  **result)
    results_dir = Path(args.results) if args.results else ROOT / ".perfbench_results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    out = results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for message in runner.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {meta['python']}  nproc {meta['nproc']}  "
          f"load {meta['loadavg_start'][0]:.2f}  commit {meta['commit'][:12]}")
    if not args.trace:
        samples = len(meta["op_best_ms"])
        print(f"passes {meta['passes']}  latency samples {samples} ops"
              + ("" if samples >= 100 else "  (p90 has < 10 samples beyond it)"))
        print(f"reference job best {meta['reference_best_ms']:.4f} ms; times below are "
              f"scaled by {REFERENCE_S * 1000:g}/{meta['reference_best_ms']:.4f}")
    print(f"failed_ops {failed_share:.4f} share ({runner.failed} of {runner.attempted} ops)")
    print(f"output digest {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"result file {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")
    print(json.dumps(result, sort_keys=True))
    return 0


def best_pass(by_key) -> tuple[float, list[float]]:
    """One pass at each op's best time over the passes, and those op times."""
    best = [min(times) for times in by_key.values()]
    return sum(best), best


def end_to_end(setup_times, by_key, scale: float) -> dict:
    """The end-to-end metrics, with every time multiplied by `scale`."""
    pass_s, best = best_pass(by_key)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "pass_s": (scale * pass_s, "s"),
        "op_p50_ms": (scale * 1000 * percentile(best, 50), "ms"),
        "op_p90_ms": (scale * 1000 * percentile(best, 90), "ms"),
        "setup_s": (scale * statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tracer, runner, setups: int, untraced, traced) -> dict:
    """Per layer: smoke and oracle work, plus one traced set-up, plus one traced pass."""
    once = tracer.totals([ONCE])
    per_setup = tracer.totals([SETUP])
    per_pass = tracer.totals(runner.op_ids)
    passes = max(runner.passes, 1)
    metrics = {}
    for name, value in once.items():
        unit = "s" if name.endswith(".s") else "count"
        metrics[name] = (value + per_setup[name] / setups + per_pass[name] / passes, unit)
    traced_pass, untraced_pass = best_pass(traced)[0], best_pass(untraced)[0]
    metrics["trace.pass_s"] = (traced_pass, "s")
    metrics["trace.untraced_pass_s"] = (untraced_pass, "s")
    metrics["trace.overhead_s"] = (traced_pass - untraced_pass, "s")
    metrics["trace.spans"] = (tracer.span_count(), "count")
    return metrics


# ---------------------------------------------------------------- compare

def load_results(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            records.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
    return records


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load_results(Path(d)) for d in (args.a, args.b)]
    agree = True
    workloads_seen = sorted({r["workload"] for s in sets for r in s if not r["trace"]})
    print(f"{'workload':9} {'metric':12} {'median A':>11} {'q1-q3 A':>23} "
          f"{'median B':>11} {'q1-q3 B':>23} {'spread A':>8} {'spread B':>8} "
          f"{'B vs A':>7}  verdict")
    for workload in workloads_seen:
        rows = [[r for r in s if r["workload"] == workload and not r["trace"]] for s in sets]
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            values = [[r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                      for rs in rows]
            if any(len(v) < 2 for v in values):
                print(f"{workload:9} {name:12} needs two runs or more in each set")
                agree = False
                continue
            stats = []
            for v in values:
                q1, q2, q3 = statistics.quantiles(v, n=4)
                stats.append((statistics.median(v), q1, q3, (q3 - q1) / statistics.median(v)))
            (ma, a1, a3, sa), (mb, b1, b3, sb) = stats
            change = (mb - ma) / ma if lower else (ma - mb) / ma
            ok = change <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            agree &= ok
            print(f"{workload:9} {name:12} {ma:11.5g} {a1:11.5g}-{a3:<11.5g} {mb:11.5g} "
                  f"{b1:11.5g}-{b3:<11.5g} {sa:8.3f} {sb:8.3f} {change:+7.3f}  "
                  f"{'agree' if ok else f'DISAGREE (bound {bound})'}")
        digests = {}
        for r in rows[0] + rows[1]:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        unstable = sorted(seed for seed, d in digests.items() if len(d) > 1)
        failed = sum(r["failed"] for r in rows[0] + rows[1])
        print(f"{workload:9} digests stable across runs of a seed: "
              f"{'yes' if not unstable else f'NO (seeds {unstable})'}; failed ops {failed}")
        agree &= not unstable and failed == 0
    print("sets agree within the bounds" if agree else "sets DISAGREE")
    return 0 if agree else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table of the end-to-end metrics."""
    names = ("pass_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
    print(f"{'workload':9}" + "".join(f"{n:>14}" for n in names)
          + f"{'failed_ops':>12}  correct  digest")
    ok = True
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.results:
            argv += ["--results", args.results]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:9} failed (exit {proc.returncode}): {proc.stderr.strip()}")
            ok = False
            continue
        result = json.loads(lines[-1])
        digest = next(line.split()[-1] for line in lines if line.startswith("output digest"))
        metrics = result["metrics"]
        share = result["failed"] / result["attempted"]
        print(f"{workload:9}" + "".join(
            f"{metrics[n]['value']:>10.4g} {metrics[n]['unit']:<3}" for n in names)
            + f"{share:>6.4f} share  {str(result['correct']).lower():7}  {digest[:16]}")
        ok &= result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="directory of result files, set A")
        parser.add_argument("b", help="directory of result files, set B")
        return compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["all"]:
        parser = argparse.ArgumentParser(prog="run.py all")
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, default=32)
        parser.add_argument("--results", help="directory for the result files")
        return run_all(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", help="directory for the result file "
                        "(default .perfbench_results/ in the checkout)")
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
