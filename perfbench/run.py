"""Decision benchmark for asdkit.

Run from the repository root:

    python3 perfbench/run.py --workload product-cli --seed 1 --seconds 20 --trace 0

Workloads (their reasons are in BENCHMARK.json):

* ``product-cli``: ``asdkit.cli.main`` on JSON files of L-family products;
* ``reduce-search``: ``find_reduction(structural=False)`` on products of
  binary devices, mixed with ``clique_via_reduction``;
* ``equiv-factor``: ``decide_equivalence`` on relabelled and unrelated
  products, ``factor_binary(audit=True)`` and ``gi_via_equivalence``.

The load is a closed loop: one caller in one process issues the next op only
after the previous one returned, in rounds of a fixed op mix.  A run does at
least one round and ends at the round boundary nearest to ``--seconds`` of
op wall time (both twins counted in a traced run).
Inputs come from ``--seed`` and every op gets inputs no earlier op in the
process has seen.  Every verdict and witness is checked outside the timed
region; on a wrong answer the run prints the reason on standard error and
exits 1 without a result.  An op that exhausts its node budget counts as
failed, never as wrong; an op that raises anything else is a wrong answer.
The random workloads deal their instances from ``corpus.json``, which keeps
only instances decided within half the node budget (see ``make_corpus.py``),
so no op is expected to fail.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
reports its per-layer metrics instead: each op then runs twice on equal-cost
inputs, once untraced and once traced (in alternating order), which gives
``trace.overhead_frac``; layer figures come from the traced copy only.  After
the timed loop, the first rejected corpus instance of each op kind runs once
as a traced probe at the screen budget, outside the ops;
``reduction.budget_exceeded.count`` counts the budget exhaustions of the
probes and the ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the run record (machine, versions, seed, node budget) and every metric
by name and unit.  The same record, the per-op latencies and, with
``--trace 1``, the spans are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")
# set-ups per run, spread over the timed loop so that they meet the machine
# in the states its ops meet; setup_s takes their median
SETUP_REPEATS = 7
# times the imports of the benchmark and the library in a fresh interpreter;
# its arguments are put in front of sys.path
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import numpy, asdkit, workloads; print(time.perf_counter() - t)")
# a round already under way is finished; none starts after this much wall time
ROUND_CUTOFF_S = 110.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["product-cli", "reduce-search", "equiv-factor"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def import_seconds(src: str) -> float:
    """Import time of numpy, asdkit and the workloads in a fresh interpreter."""
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src, here], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


class Runner:
    """Runs ops in a closed loop and keeps one record per op."""

    def __init__(self, tracer, failure, prefix="o"):
        self.tracer = tracer
        self.failure = failure  # the exception type of an exhausted budget
        self.prefix = prefix
        self.records = []  # (kind, seconds, outcome) of the ops that count
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.count = 0

    def _timed(self, op, traced: bool):
        clock = time.perf_counter
        start = clock()
        try:
            if traced:
                with self.tracer.op(self.count, op.kind):
                    result = op.run()
            else:
                result = op.run()
        except self.failure:  # the only way an op may fail; any other raise is wrong
            return clock() - start, False, None
        return clock() - start, True, result

    def _one(self, op, traced: bool):
        try:
            took, ok, value = self._timed(op, traced)
            if ok:
                op.check(value)
        finally:
            op.cleanup()
        return took, ok

    def run(self, spec) -> float:
        """Run one spec (with a tracer: an untraced and a traced twin); return its op time."""
        self.count += 1
        tag = f"{self.prefix}{self.count}"
        if self.tracer is None:
            took, ok = self._one(spec.make(tag + "."), False)
            self.records.append((spec.kind, took, "ok" if ok else "failed"))
            return took
        plain, traced = spec.make(tag + "u."), spec.make(tag + "t.")
        order = [(plain, False), (traced, True)]
        if self.count % 2:
            order.reverse()
        total = 0.0
        for op, on in order:
            took, ok = self._one(op, on)
            total += took
            if on:
                self.traced_s += took
                self.records.append((spec.kind, took, "ok" if ok else "failed"))
            else:
                self.untraced_s += took
        return total


def end_to_end(records, setup_s: float) -> dict:
    times = [t for _, t, _ in records]
    decided = sum(1 for _, _, o in records if o == "ok")
    out = {
        "ops_per_s": decided / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "failed_frac": (len(records) - decided) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(records) >= 100:
        out["op_p90_ms"] = statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3
    return out


# layer-coverage claims: which self times each workload was chosen to stress
LAYERS = ("partitions", "devices", "witnesses", "minimization", "invariants",
          "reduction", "factorization", "graphs", "cli")
FOCUS = {
    "reduce-search": ("reduction.search_reduction", "reduction.ac_narrow"),
    "equiv-factor": ("reduction.search_bijection",),
}


def coverage(workload: str, tracer, base_s: float) -> dict:
    """Self-time shares of the traced ops, with their base, and the workload's claim."""
    self_s = {name: st[1] for name, st in tracer.stats.items()}

    def layer(prefix, skip=()):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + ".") and k not in skip)

    if workload == "product-cli":
        kernels = sum(layer(x) for x in ("partitions", "minimization", "invariants", "devices", "cli"))
        search = sum(v for k, v in self_s.items() if k.startswith("reduction.search_"))
        shares = {"partitions+minimization+invariants+devices+cli": kernels / base_s,
                  "reduction.search_*": search / base_s}
        claim = "partitions+minimization+invariants+devices+cli self time exceeds reduction.search_*"
        holds = kernels > search
    else:
        focus = FOCUS[workload]
        shares = {"+".join(focus): sum(self_s[k] for k in focus) / base_s}
        for name in LAYERS:
            shares[name] = layer(name, focus) / base_s
        key = "+".join(focus)
        claim = f"{key} is the largest layer share"
        holds = all(shares[key] > v for k, v in shares.items() if k != key)
    shares["benchmark (op root self)"] = self_s["op"] / base_s
    return {"base_s": base_s, "shares": shares, "claim": claim, "holds": holds}


def main(argv=None) -> int:
    args = parse_args(argv)
    t_process = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "asdkit", "__init__.py")):
        print(f"error: no asdkit sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    nproc = len(os.sched_getaffinity(0))
    # one caller needs one BLAS thread; more would spin on the other cores
    # and tie the timings to whatever else runs there
    for var in BLAS_VARS:  # set before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import asdkit
    if not os.path.abspath(asdkit.__file__).startswith(src + os.sep):
        print(f"error: asdkit was imported from {asdkit.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(ROOT, "perfbench", f".work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, spec, nproc, src, t_process, workdir)
    except workloads.StaleCorpus as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a wrong verdict, a bad witness or an op that raised
        traceback.print_exc()
        print(f"error: wrong answer: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, nproc: int, src: str, t_process: float, workdir: str) -> int:
    import numpy
    import tracing
    import workloads
    from asdkit import config

    classes = {"product-cli": workloads.ProductCli, "reduce-search": workloads.ReduceSearch,
               "equiv-factor": workloads.EquivFactor}
    cls = classes[args.workload]

    def build():
        return cls(args.seed, workdir) if cls is workloads.ProductCli else cls(args.seed)

    imports, setups = [], []

    def set_up():
        """One set-up: import in a fresh interpreter, build the inputs, run the warm-up op."""
        imports.append(import_seconds(src))
        start = time.perf_counter()
        wl = build()
        Runner(None, workloads.SearchBudgetExceeded, prefix=f"w{len(setups)}-").run(wl.warmup())
        setups.append(time.perf_counter() - start)
        return wl

    wl = set_up()
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(tracer, workloads.SearchBudgetExceeded)
    rounds = wl.rounds()
    op_s, done = 0.0, 0
    # end at the round boundary nearest to --seconds of op time, so that a
    # workload whose one round takes about --seconds (product-cli) does not
    # flip between one and two rounds as the machine's speed drifts
    while done == 0 or (op_s + op_s / done / 2 < args.seconds
                        and time.perf_counter() - t_process < ROUND_CUTOFF_S):
        for s in next(rounds):
            op_s += runner.run(s)
            if len(setups) < SETUP_REPEATS * min(op_s / args.seconds, 1.0):
                set_up()
        done += 1
    while len(setups) < SETUP_REPEATS:
        set_up()
    probes = {}
    if tracer is not None:
        probe_tracer = tracing.Tracer()
        for i, s in enumerate(wl.probes()):
            op = s.make(f"p{i}.")
            try:
                with wl.screening(), probe_tracer.op(-1 - i, s.kind):
                    value = op.run()
                op.check(value)
                probes[s.kind] = "decided"
            except workloads.SearchBudgetExceeded:
                probes[s.kind] = "budget exceeded"
            finally:
                op.cleanup()
        tracer.counts["budget_exceeded"] += probe_tracer.counts["budget_exceeded"]
    setup_s = statistics.median(imports) + statistics.median(setups)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    budget = wl.budget if wl.budget is not None else config.SEARCH_NODE_BUDGET
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, one process",
        "node_budget": budget,
        "node_budget_source": "passed to every call" if wl.budget is not None
        else "library default; the CLI takes no budget",
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "setup_repeats_s": setups,
        "import_repeats_s": imports,
    }
    if args.trace:
        record["probes"] = probes
    records = runner.records
    attempted = len(records)
    failed = sum(1 for _, _, o in records if o != "ok")
    e2e = end_to_end(records, setup_s)
    kinds = {}
    for kind, took, outcome in records:
        k = kinds.setdefault(kind, {"ops": 0, "failed": 0, "seconds": 0.0})
        k["ops"] += 1
        k["failed"] += outcome != "ok"
        k["seconds"] += took
    record["ops_by_kind"] = kinds

    lines = [f"# asdkit decision benchmark: {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}",
             f"# why: {record['why']}"]
    if args.trace:
        overhead = runner.traced_s / runner.untraced_s - 1
        cov = coverage(args.workload, tracer, runner.traced_s)
        metrics = {}
        for m in spec["per_layer"]:
            value = overhead if m["name"] == "trace.overhead_frac" else tracer.metric(m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        record["coverage"] = cov
        lines.append(f"# layer coverage: {cov['claim']}: {'holds' if cov['holds'] else 'DOES NOT HOLD'}"
                     f" (base {cov['base_s']:.3f} s of traced op time)")
        lines += [f"#   {k:<48} {v:8.4f}" for k, v in cov["shares"].items()]
    else:
        # op_p50_ms, op_p90_ms and failed_frac are printed but not listed in
        # BENCHMARK.json: p90 needs 100 ops, which product-cli never runs,
        # failed_frac is 0 where nothing fails, and the median of a few
        # millisecond ops moves by a fifth between runs on a shared machine
        units = {"op_p50_ms": "ms", "op_p90_ms": "ms", "failed_frac": "ratio"}
        units.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "failed_frac", "setup_s", "peak_rss_mb"):
            if name in e2e:
                lines.append(f"{name:<16} {e2e[name]:14.4f} {units[name]}")
            else:
                lines.append(f"{name:<16} {'not reported':>14} (fewer than 100 ops)")
        lines.append(f"{'ops':<16} {attempted:14d} attempted, {failed} failed")
    lines.append("# record: " + json.dumps(record))
    if args.trace:
        lines += [f"{k:<48} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "end_to_end": e2e, "metrics": metrics,
                   "ops": [[k, t * 1e3, o] for k, t, o in records]}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "op", "name", "start", "end"), span))) + "\n")

    print("\n".join(lines))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
