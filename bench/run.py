"""hotring benchmark: time to verdict on four query workloads.

    python3 bench/run.py --workload kv1 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; hotring is imported from the
checkout's ``src``.  One process runs one workload as a closed loop with a
single client: the query script is asked query by query, and rounds of
the whole script repeat until ``--seconds`` have passed (at least one
round).  Every verdict is checked against bench/reference.json (verdicts
recorded at the seed commit), hand values and independent oracles;
mismatches are printed by name.

With ``--trace 0`` the last line of output carries the end-to-end metrics
(untraced).  With ``--trace 1`` the script runs untraced for half of the
time, then exactly once more with every public hotring function wrapped
(see tracer.py); the last line carries the per-layer metrics of that one
traced round, the per-query span totals go to bench/out/, and
trace_overhead_ratio compares the traced round with the untraced ones.

See bench/DESIGN.json for why each workload exists and which layer metric
should move which end-to-end metric.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, digest, load_hotring  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 12  # child set-ups, plus this process's own

# per-layer metric -> (unit, how it is computed from the traced totals)
LAYER_METRICS = {
    "glk.circle.calls": ("count", "calls", ["glk.circle"]),
    "glk.circle.self_s": ("s", "self", ["glk.circle"]),
    "glk.subgroup_closure.calls":
        ("count", "calls", ["glk.CircleGroup.subgroup_closure"]),
    "glk.subgroup_closure.busy_s":
        ("s", "busy", ["glk.CircleGroup.subgroup_closure"]),
    "glk.is_normal.calls": ("count", "calls", ["glk.CircleGroup.is_normal"]),
    "glk.is_normal.busy_s": ("s", "busy", ["glk.CircleGroup.is_normal"]),
    "glk.gl_group.busy_s": ("s", "busy", ["glk.gl_group"]),
    "glk.quasi_inverse.calls": ("count", "calls", ["glk.quasi_inverse"]),
    "glk.quasi_inverse.busy_s": ("s", "busy", ["glk.quasi_inverse"]),
    "glk.qi_ok_ratio": ("1", "ratio", ["glk.qi.ok", "glk.quasi_inverse"]),
    "glk.qi_unknown": ("count", "calls", ["glk.qi.unknown"]),
    "poly.substitute.calls": ("count", "calls", ["poly.substitute"]),
    "poly.substitute.self_s": ("s", "self", ["poly.substitute"]),
    "simplicial.check.busy_s":
        ("s", "busy", ["simplicial.check_simplicial_identities",
                       "simplicial.check_contraction_compatibility"]),
    "simplicial.check.self_s":
        ("s", "self", ["simplicial.check_simplicial_identities",
                       "simplicial.check_contraction_compatibility"]),
    "poly.poly_mul.calls": ("count", "calls", ["poly.poly_mul"]),
    "poly.poly_mul.self_s": ("s", "self", ["poly.poly_mul"]),
    "poly.poly_add.calls": ("count", "calls", ["poly.poly_add"]),
    "poly.poly_add.self_s": ("s", "self", ["poly.poly_add"]),
    "rings.mul.calls": ("count", "calls", ["rings.FiniteRing.mul"]),
    "rings.mul.self_s": ("s", "self", ["rings.FiniteRing.mul"]),
    "rings.add.calls": ("count", "calls", ["rings.FiniteRing.add"]),
    "rings.enumerate_homs.busy_s": ("s", "busy", ["rings.enumerate_homs"]),
    "rings.validate_ring.calls": ("count", "calls", ["rings.validate_ring"]),
    "rings.validate_ring.busy_s": ("s", "busy", ["rings.validate_ring"]),
    "rings.pullback.busy_s": ("s", "busy", ["rings.pullback"]),
    "rings.kernel_subring.busy_s": ("s", "busy", ["rings.kernel_subring"]),
    "intlin.solve.calls": ("count", "calls", ["intlin.LinearSolver.solve"]),
    "intlin.solve.busy_s": ("s", "busy", ["intlin.LinearSolver.solve"]),
    "intlin.smith_normal_form.calls":
        ("count", "calls", ["intlin.smith_normal_form"]),
    "intlin.smith_normal_form.busy_s":
        ("s", "busy", ["intlin.smith_normal_form"]),
    "homotopy.search_elementary.calls":
        ("count", "calls", ["homotopy.search_elementary"]),
    "homotopy.search_elementary.busy_s":
        ("s", "busy", ["homotopy.search_elementary"]),
    "homotopy.candidates_searched":
        ("count", "calls", ["homotopy.candidates_searched"]),
    "homotopy.search_hit_ratio":
        ("1", "ratio", ["homotopy.search_hits", "homotopy.search_elementary"]),
    "homotopy.verify_certificate.calls":
        ("count", "calls", ["homotopy.verify_certificate"]),
    "homotopy.verify_certificate.busy_s":
        ("s", "busy", ["homotopy.verify_certificate"]),
    "triangle.k0_presentation.busy_s":
        ("s", "busy", ["triangle.k0_presentation"]),
    "triangle.truncated_puppe.busy_s":
        ("s", "busy", ["triangle.TruncatedPuppe.__init__",
                       "triangle.TruncatedPuppe.verify_kernel_exactness",
                       "triangle.TruncatedPuppe.pointed_set_exactness"]),
    "triangle.factorize_verify.busy_s":
        ("s", "busy", ["triangle.Factorization.verify"]),
    "store.hits": ("count", "calls", ["store.hits"]),
    "store.misses": ("count", "calls", ["store.misses"]),
    "store.load.busy_s": ("s", "busy", ["store.ResultStore.load"]),
    "store.save.busy_s": ("s", "busy", ["store.ResultStore.save"]),
    "store.bytes_written": ("count", "calls", ["store.bytes_written"]),
    "corpus.corpus.calls": ("count", "calls", ["corpus.corpus"]),
    "corpus.corpus.busy_s": ("s", "busy", ["corpus.corpus"]),
    "serialize.ring_from_json.busy_s":
        ("s", "busy", ["serialize.ring_from_json"]),
    "cli.main.calls": ("count", "calls", ["cli.main"]),
    "cli.main.self_s": ("s", "self", ["cli.main"]),
}

# spans printed for the slowest queries of a traced round
BREAKDOWN = {
    "simplicial": ["poly.substitute", "poly.poly_mul", "poly.poly_add",
                   "poly.substitution_hom"],
    "kv1": ["glk.gl_group", "glk.quasi_inverse",
            "glk.CircleGroup.subgroup_closure", "glk.CircleGroup.is_normal",
            "intlin.smith_normal_form"],
    "certificates": ["rings.enumerate_homs", "homotopy.search_elementary",
                     "homotopy.verify_certificate", "rings.validate_ring",
                     "rings.pullback", "rings.kernel_subring",
                     "intlin.LinearSolver.solve", "intlin.smith_normal_form"],
    "cli-replay": ["store.ResultStore.load", "store.ResultStore.save",
                   "corpus.corpus", "serialize.ring_from_json",
                   "glk.kv1_approx", "homotopy.homotopy_classes",
                   "rings.enumerate_homs"],
}


def canonical(value):
    """JSON-normal form of a verdict; long verdicts shrink to a digest."""
    value = json.loads(json.dumps(value, sort_keys=True))
    if len(json.dumps(value, sort_keys=True)) > 600:
        return {"sha256": digest(value)}
    return value


def ask(hotring, query):
    """Run one query; a BudgetExceeded refusal is a verdict of its own."""
    try:
        return query.fn()
    except hotring.BudgetExceeded as exc:
        return {"refused": "BudgetExceeded", "required": exc.required,
                "budget": exc.budget}
    except Exception as exc:  # counted as a failure, never fatal
        return {"raised": f"{type(exc).__name__}: {exc}"}


def run_round(hotring, workload, index, tracer=None):
    """Ask the whole script once; returns wall time, per-query times,
    queries, verdicts and (traced) per-query span deltas."""
    queries = workload.queries()
    times, verdicts, spans = [], [], []
    gc.collect()
    with workload.round(index):
        start = time.perf_counter()
        for q in queries:
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            verdict = ask(hotring, q)
            times.append(time.perf_counter() - t0)
            verdicts.append(verdict)
            if tracer:
                after = tracer.snapshot()
                spans.append({k: [v[0] - before.get(k, (0, 0, 0))[0],
                                  v[1] - before.get(k, (0, 0, 0))[1],
                                  v[2] - before.get(k, (0, 0, 0))[2]]
                              for k, v in after.items()
                              if v != before.get(k)})
        wall = time.perf_counter() - start
    return wall, times, queries, verdicts, spans


def check_round(queries, verdicts, reference):
    """Names and reasons of every verdict that fails a check."""
    failures = []
    for q, verdict in zip(queries, verdicts):
        problems = []
        if "raised" in verdict:
            problems.append(f"raised {verdict['raised']}")
        else:
            if q.recorded:
                recorded = reference.get(q.qid)
                got = canonical(verdict)
                if recorded is None:
                    problems.append("no recorded verdict")
                elif recorded != got:
                    problems.append(f"verdict {got} differs from recorded "
                                    f"{recorded}")
            if q.check is not None:
                msg = q.check(verdict)
                if msg:
                    problems.append(msg)
        if problems:
            failures.append((q.qid, "; ".join(problems)))
    return failures


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a + m2 - 1) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1))):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-13:
            break
    return h


def _beta_inc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics with Beta((n+1)q, (n+1)(1-q)) weights.  Unlike a single
    order statistic it does not jump when two queries of similar duration
    swap places, which matters when few distinct queries sit near q."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    total, prev = 0.0, 0.0
    for i, x in enumerate(xs, 1):
        cur = _beta_inc(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


def tail_percentile(n):
    """Highest whole percentile with at least ten of n queries beyond it."""
    p = 99
    while p > 1 and n * (100 - p) < 10 * 100:
        p -= 1
    return p


def probe_setup(workload, seed, scratch):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"),
         "--workload", workload, "--seed", str(seed), "--scratch", scratch],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "hotring", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def layer_metrics(totals, traced_wall, untraced_wall):
    def get(name, field):
        return totals.get(name, (0, 0.0, 0.0))[field]

    out = {}
    for metric, (unit, kind, names) in LAYER_METRICS.items():
        if kind == "ratio":
            num, den = get(names[0], 0), get(names[1], 0)
            value = num / den if den else 0.0
        else:
            field = {"calls": 0, "busy": 1, "self": 2}[kind]
            value = sum(get(n, field) for n in names)
        out[metric] = {"value": value, "unit": unit}
    out["trace_overhead_ratio"] = {"value": traced_wall / untraced_wall,
                                   "unit": "1"}
    return out


def report_breakdown(name, queries, times, spans, top=8):
    watch = BREAKDOWN[name]
    order = sorted(range(len(queries)), key=lambda i: -times[i])[:top]
    print(f"slowest {len(order)} traced queries (busy ms of "
          f"{', '.join(watch)}):")
    for i in order:
        parts = sorted(((spans[i].get(s, (0, 0.0, 0.0))[1], s)
                        for s in watch), reverse=True)[:3]
        shown = "  ".join(f"{s}={b * 1000:.1f}" for b, s in parts if b)
        print(f"  {queries[i].qid:<44} {times[i] * 1000:9.1f} ms  {shown}")


def write_trace(name, seed, queries, times, spans, totals):
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["calls", "busy_s", "self_s"],
                   "totals": {k: list(v) for k, v in sorted(totals.items())},
                   "queries": [{"qid": q.qid, "ms": t * 1000, "spans": s}
                               for q, t, s in zip(queries, times, spans)]},
                  fh, sort_keys=True)
    return os.path.relpath(path, ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    hotring = load_hotring(ROOT)
    if not os.path.isfile(REFERENCE):
        raise SystemExit(f"benchmark: missing {REFERENCE}")
    scratch = os.path.join(HERE, ".scratch", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        workload = WORKLOADS[args.workload](hotring, args.seed,
                                            os.path.join(scratch, "main"))
        try:
            workload.setup()
            setups = [time.perf_counter() - _T0]
            for k in range(SETUP_PROBES):
                setups.append(probe_setup(args.workload, args.seed,
                                          os.path.join(scratch, f"probe{k}")))
            with open(REFERENCE, encoding="utf-8") as fh:
                reference = json.load(fh)[args.workload]
            workload.prepare()
            result = measure(hotring, workload, args, reference, setups)
        finally:
            workload.cleanup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass        # another run still uses it
    print(json.dumps(result))


def measure(hotring, workload, args, reference, setups):
    name = args.workload
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, times, failures, attempted = [], [], [], 0
    peak_rss_mb = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < budget:
        wall, qtimes, queries, verdicts, _ = run_round(hotring, workload,
                                                       len(walls))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(wall)
        times.extend(qtimes)
        attempted += len(queries)
        failures.extend(check_round(queries, verdicts, reference))
    per_round = len(queries)

    if args.trace:
        from tracer import Tracer
        tracer = Tracer(hotring)
        tracer.install()
        traced_wall, ttimes, queries, verdicts, spans = run_round(
            hotring, workload, len(walls), tracer)
        attempted += len(queries)
        failures.extend(check_round(queries, verdicts, reference))
        totals = tracer.snapshot()
        metrics = layer_metrics(totals, traced_wall,
                                statistics.median(walls))
        report_breakdown(name, queries, ttimes, spans)
        path = write_trace(name, args.seed, queries, ttimes, spans, totals)
        print(f"per-query spans written to {path}")
    else:
        pct = tail_percentile(per_round)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "query_p50_ms": {"value": quantile(times, 0.5) * 1000,
                             "unit": "ms"},
            "query_tail_ms": {"value": quantile(times, pct / 100) * 1000,
                              "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"workload {name}: seed {args.seed}, {len(walls)} rounds of "
              f"{per_round} queries; query_tail_ms is p{pct}; "
              f"setup_s is the median of {len(setups)} set-ups")

    for qid, why in failures:
        print(f"MISMATCH {name}/{qid}: {why}")
    print(f"{'failed_ratio':<32} {len(failures) / attempted:.6g} 1 "
          f"({len(failures)} of {attempted} queries)")
    for metric, m in metrics.items():
        print(f"{metric:<32} {m['value']:.6g} {m['unit']}")
    print(f"{'src_lines':<32} {src_lines()} lines (informational)")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


if __name__ == "__main__":
    main()
