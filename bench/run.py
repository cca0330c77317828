"""hullscope benchmark: one workload per run, one process, one closed-loop client.

    python3 bench/run.py --workload planar-stream --seed 1 --seconds 40 --trace 0

Run from the repository root. The client sends one query at a time and the
next one when the previous returns. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs a fixed share of the same
queries once untraced and once traced and reports the per-layer metrics and
the tracing overhead. Every answer is checked against ground truth the
benchmark computes itself. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones declared in ``BENCHMARK.json``. Query latencies are
declared in units of a reference kernel timed next to each query (see
``reference_kernel``); the wall-time figures are printed above the last line.

Exit status is 0 when a result was printed (``correct`` says whether every
answer was right) and 2 when the benchmark could not run or found itself
inconsistent: a traced counter that does not reconcile with a report, or a
deterministic counter or verdict that differs from an earlier run of the
same seed.
"""

import os

# One process, no helper threads, no logging on the timed path: these must
# be set before numpy (imported by hullscope) is loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["HULLSCOPE_LOG"] = "off"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
OUT = ROOT / ".bench_out"

# Fresh-process set-ups on top of the run's own; setup_s is their median.
SETUP_PROBES = 4

_perf = time.perf_counter


class _Abort(Exception):
    pass


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise _Abort(f"cannot read {path.name}: {exc}") from exc


def timed_setup(workload: str, seed: int, seconds: float):
    """Import the library, draw the inputs, build them and run the warm-up.

    Drawing the inputs and their ground truth is excluded from the returned
    set-up time; the import, the library objects and the warm-up are in it.
    """
    if not (SRC / "hullscope" / "__init__.py").is_file():
        raise _Abort(f"no hullscope sources under {SRC}")
    if workload == "fixtures-cli" and not PROBLEMS.is_dir():
        raise _Abort(f"no fixture directory {PROBLEMS}")
    sys.path.insert(0, str(SRC))
    t0 = _perf()
    hs = importlib.import_module("hullscope")
    t_import = _perf() - t0
    if Path(hs.__file__).resolve().parent != SRC / "hullscope":
        raise _Abort(f"imported hullscope from {hs.__file__}, not from {SRC}")
    # the library's loggers, silenced as HULLSCOPE_LOG=off silences them in the CLI
    logging.getLogger("hullscope").setLevel(logging.CRITICAL + 10)

    import workloads as W

    specs = W.make_specs(workload, seed, W.rounds_for(workload, seconds))
    t1 = _perf()
    queries = [W.build_query(s, hs, PROBLEMS) for s in specs.flat()]
    for spec in W.warmup_specs(workload):
        q = W.build_query(spec, hs, PROBLEMS)
        outcome, ok = q.check(q.call())
        if not ok:
            raise _Abort(f"warm-up query {q.label!r} answered wrongly: {outcome[:200]}")
    return hs, W, specs, queries, t_import + (_perf() - t1)


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise _Abort(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# The reference kernel: a fixed step loop over an 8-vector, the same mix of
# small numpy operations and Python float arithmetic that hullscope's
# expression trees do, but independent of hullscope. The shared host changes
# the speed of such code by up to 2x from minute to minute, and the kernel
# timed next to a query slows with it: over ten seeds, the median latency
# spread 0.15-0.37 (IQR over median) in wall time and 0.05-0.12 in kernel
# units.
REF_STEPS = 1600
_REF_C = np.linspace(-1.0, 1.0, 8)


def reference_kernel() -> float:
    x = np.zeros(8)
    acc = 0.0
    for _ in range(REF_STEPS):
        d = x - _REF_C
        v = float(d @ d) - 1.0
        acc += max(v, 0.0)
        x = x - 1e-3 * (2.0 * d)
    return acc


def _time_reference() -> float:
    t0 = _perf()
    reference_kernel()
    return _perf() - t0


def run_queries(queries, tracer=None):
    """Closed loop over ``queries``.

    Returns latencies, reference-kernel times (one before each query and one
    after the last), outcomes and failures.
    """
    lat, ref, outcomes, failures = [], [_time_reference()], [], []
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        t0 = _perf()
        try:
            result = q.call()
            err = None
        except Exception as exc:  # an exception no query expects counts as a failed query
            err = exc
        lat.append(_perf() - t0)
        ref.append(_time_reference())
        if err is not None:
            outcome, ok = f"error:{type(err).__name__}: {err}", False
        else:
            outcome, ok = q.check(result)
        outcomes.append(outcome)
        if not ok:
            failures.append((i, q.label, outcome))
    return lat, ref, outcomes, failures


def in_ref_units(lat: list[float], ref: list[float]) -> list[float]:
    """Each latency over the mean of the reference times just before and after it."""
    return [t / (0.5 * (a + b)) for t, a, b in zip(lat, ref, ref[1:])]


def tail(lat: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With n samples that is the sample of rank n - 10 (percentile
    100 (n - 10) / n). Below 20 samples no rank at or above the median has
    ten samples beyond it, and the median is reported instead.
    """
    n = len(lat)
    if n < 20:
        return 50.0, statistics.median(lat)
    return 100.0 * (n - 10) / n, sorted(lat)[n - 11]


def code_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "hullscope", Path(__file__).resolve().parent):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".py", ".json"):
                h.update(p.relative_to(ROOT).as_posix().encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(args, record: dict) -> str:
    """Compare deterministic counters and verdicts with an earlier run of the same seed."""
    key = f"{args.workload}-seed{args.seed}-s{args.seconds:g}-trace{args.trace}-{code_digest()}.json"
    path = OUT / "repeat" / key
    if path.is_file():
        before = json.loads(path.read_text())
        if before != record:
            diff = {k: (before.get(k), record.get(k)) for k in set(before) | set(record)
                    if before.get(k) != record.get(k)}
            raise _Abort(f"deterministic counters differ from the earlier run {path.name}: {diff}")
        return "repeat check: identical to the earlier run of this seed"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return "repeat check: first run of this seed, counters recorded"


def _digest(outcomes: list[str]) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


def _emit(metrics: dict, declared: list, lines: list[str]) -> dict:
    out = {}
    for d in declared:
        if d["name"] not in metrics:
            raise _Abort(f"declared metric {d['name']} was not measured")
        value, unit = metrics[d["name"]]
        if unit != d["unit"]:
            raise _Abort(f"metric {d['name']} measured in {unit}, declared in {d['unit']}")
        out[d["name"]] = {"value": value, "unit": unit}
    width = max(len(k) for k in metrics)
    for k, (value, unit) in metrics.items():
        mark = "" if k in out else "   (stdout only)"
        lines.append(f"{k:<{width}}  {value:.6g} {unit}{mark}")
    return out


def main(argv=None) -> int:
    try:
        declared = _declared()
    except _Abort as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    try:
        if args.setup_probe:
            print(repr(timed_setup(args.workload, args.seed, args.seconds)[-1]))
            return 0
        hs, W, specs, queries, own_setup = timed_setup(args.workload, args.seed, args.seconds)
        if args.trace:
            return _traced(args, declared, hs, specs, queries)
        setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        return _untraced(args, declared, specs, queries, setups)
    except (_Abort, RuntimeError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


def _header(args, specs, queries) -> list[str]:
    return [f"workload {args.workload}  seed {args.seed}  rounds {len(specs.rounds)}  "
            f"queries {len(queries)}  near-threshold instances dropped {specs.dropped}",
            "load: 1 process, 1 closed-loop client (next query sent when the previous returns)"]


def _report_failures(lines, failures, attempted):
    lines.append(f"failed_frac  {len(failures) / attempted:.6g}  ({len(failures)}/{attempted})")
    for i, label, outcome in failures:
        lines.append(f"  FAILED query {i} [{label}]: {outcome[:300]}")


def _untraced(args, declared, specs, queries, setups) -> int:
    _time_reference()  # warm-up, untimed
    t0 = _perf()
    lat, ref, outcomes, failures = run_queries(queries)
    wall = _perf() - t0
    n = len(lat)
    norm = in_ref_units(lat, ref)
    p_tail, v_tail = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_kref": (1e3 * n / sum(norm), "1/kref"),
        "query_p50_ref": (statistics.median(norm), "ref"),
        "query_tail_ref": (tail(norm)[1], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "queries_per_s": (n / sum(lat), "1/s"),
        "query_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "query_tail_ms": (1e3 * v_tail, "ms"),
        "ref_p50_ms": (1e3 * statistics.median(ref), "ms"),
    }
    lines = _header(args, specs, queries)
    lines.append(f"setup_s: median of {len(setups)} set-ups ({', '.join(f'{s:.4f}' for s in setups)} s)")
    lines.append(f"{n} queries in {sum(lat):.3f} s of {wall:.3f} s wall, {len(ref)} reference kernels "
                 f"between them; p50 over {n} samples; tail is p{p_tail:.4g} over {n} samples; "
                 "1 ref = the reference kernel's time next to the query")
    out = _emit(metrics, declared["end_to_end"], lines)
    _report_failures(lines, failures, n)
    lines.append(check_repeat(args, {"outcomes": _digest(outcomes)}))
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": n, "failed": len(failures),
                      "metrics": out}))
    return 0


def _traced(args, declared, hs, specs, queries) -> int:
    import tracing

    per_round = len(specs.rounds[0])
    subset = queries[:per_round * max(1, len(specs.rounds) // 2)]
    lat_u, _, out_u, fail_u = run_queries(subset)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lat_t, _, out_t, fail_t = run_queries(subset, tracer)
    finally:
        tracer.uninstall()
    if out_t != out_u:
        bad = next(i for i, (a, b) in enumerate(zip(out_u, out_t)) if a != b)
        raise _Abort(f"query {bad} answered differently traced and untraced: "
                     f"{out_u[bad][:200]!r} vs {out_t[bad][:200]!r}")
    spans = tracer.spans
    checked = tracing.reconcile(spans)
    metrics = tracing.layer_metrics(spans, len(subset))
    metrics.update(tracing.kernel_grid(hs))
    metrics["trace.overhead_frac"] = (sum(lat_t) / sum(lat_u) - 1.0, "ratio")
    counters = tracing.deterministic_counters(spans)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "queries": [q.label for q in subset],
        "fields": ["name", "query", "parent", "start", "end", "evals", "eval_s", "info"],
        "spans": [s.as_json() for s in spans]}))

    lines = _header(args, specs, queries)
    lines.append(f"traced pass: {len(subset)} queries, {len(spans)} spans "
                 f"(written to {trace_path.relative_to(ROOT)}), bindings wrapped: "
                 + ", ".join(f"{k} x{v}" for k, v in sorted(tracer.bindings.items())))
    lines.append(f"reconciliation: {checked} report counters match their spans")
    out = _emit(metrics, declared["per_layer"], lines)
    failures = fail_u + fail_t
    _report_failures(lines, failures, 2 * len(subset))
    lines.append(check_repeat(args, {"outcomes": _digest(out_u), **counters}))
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": 2 * len(subset),
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
