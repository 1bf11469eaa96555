#!/usr/bin/env python3
"""Benchmark driver for convdual: seeded request streams, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sampled-dual --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each request is sent after the previous
one returns, as a caller waiting for its certificate would.  The program is
imported from the checkout's ``src/`` and receives only the generated inputs.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` replays a fixed
prefix of the stream alternately without and with a profiler hook that
charges time and call counts to the six modules of the package, and reports
the per-layer metrics; spans go to ``.perfbench_out/`` at exit.

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; everything above it is the
human-readable report.
"""

from __future__ import annotations

import os
import sys

# one client: keep numpy's BLAS/OpenMP pools to one thread (at most nproc)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SETUP_REPS = 5  # set-up is repeated and its median reported
MIN_REQUESTS = 200  # leaves at least ten requests beyond p95
# lower bounds on the time of one round, to size the stream for --seconds
ROUND_FLOOR_S = {"sampled-dual": 0.2, "exact-mix": 0.2, "image-cloud": 0.4}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if not ns.seconds > 0:
        p.error("--seconds must be positive")
    return ns


def import_convdual():
    """Import the package from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "convdual", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"convdual sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import convdual
    import convdual.cli  # noqa: F401  (the front end is not imported by the package)

    if os.path.realpath(convdual.__file__) != os.path.realpath(init):
        raise SystemExit(f"imported convdual from {convdual.__file__}, expected {init}")
    return convdual


# -- set-up --------------------------------------------------------------------


def setup_once(workload: str, seed: int, rounds: int, spec_root: str):
    """Fresh-interpreter import, input generation and spec-file writing."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import convdual"], env=env, cwd=ROOT, check=True)
    stream = workloads.generate(workload, seed, rounds)
    spec_dir = tempfile.mkdtemp(prefix="specs-", dir=spec_root)
    paths: dict[str, str] = {}
    for req in stream:
        if req.route == "cli" and req.family_text not in paths:
            path = os.path.join(spec_dir, f"family{len(paths)}.json")
            with open(path, "w") as fh:
                fh.write(req.family_text)
            paths[req.family_text] = path
    return stream, paths, time.perf_counter() - t0


# -- requests ------------------------------------------------------------------


class Runner:
    """Sends one request to the program and returns its raw output."""

    def __init__(self, cd, spec_paths: dict):
        self.cd = cd
        self.spec_paths = spec_paths

    def execute(self, req, spans=None):
        if req.route == "cli":
            return self._cli(req, spans)
        return self._api(req, spans)

    def _cli(self, req, spans):
        argv = [req.command, "--family", self.spec_paths[req.family_text], "--kernel", req.kernel_expr]
        if req.grid:
            argv += ["--grid", f"{req.grid[0]}x{req.grid[1]}"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cd.cli.main(argv)
        if spans is not None:
            spans.add(req.rid, "decide", "request", t0, time.perf_counter_ns())
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def _api(self, req, spans):
        cd = self.cd
        t0 = time.perf_counter_ns()
        V = cd.parse_family(req.family_text)
        g = cd.parse_series(req.kernel_expr)
        grid = cd.ParamGrid(*req.grid) if req.grid else None
        t1 = time.perf_counter_ns()
        if req.command == "image":
            result = cd.functional_image(
                cd.Functional(g, label=req.kernel_expr), V, grid=grid,
                via_border=req.via_border, mesh_depth=req.mesh_depth,
                mesh_angles=req.mesh_angles,
            )
        elif req.command == "dual-check":
            result = cd.in_dual(g, V, grid=grid)
        elif req.command == "t-check":
            result = cd.in_T(g, V, grid=grid)
        elif req.command == "perp-check":
            result = cd.in_perp(g, V, grid=grid)
        else:
            result = cd.in_dual_hull(g, V, grid=grid)
        if spans is not None:
            t2 = time.perf_counter_ns()
            spans.add(req.rid, "parse", "request", t0, t1)
            spans.add(req.rid, "decide", "request", t1, t2)
        return result


class Checker:
    """Checks outputs against the oracles; remembers verdicts for the report."""

    def __init__(self):
        self.records: list[dict] = []
        self.seen_keys: set = set()
        self.seen_families: set = set()
        self.digests: dict = {}  # request key -> certificate digest, for repeats

    def check(self, req, result, error) -> dict:
        rec = {"rid": req.rid, "template": req.template, "status": None, "problems": [],
               "members_checked": None, "cloud_points": None,
               "repeat": req.key() in self.seen_keys,
               "family_repeat": req.family_text in self.seen_families}
        self.seen_keys.add(req.key())
        self.seen_families.add(req.family_text)
        if error is not None:
            rec["problems"].append(f"raised {error}")
        elif req.command == "image":
            rec["status"] = "cloud"
            rec["cloud_points"] = len(result.points)
            rec["problems"] += checks.check_image(
                req, result.points, result.errors, result.boundary_flags,
                result.mesh_spacing, result.route)
        else:
            cert = self._certificate(req, result, rec["problems"])
            if cert is not None:
                rec["status"] = cert.get("status")
                rec["members_checked"] = cert.get("params", {}).get("members_checked")
                rec["problems"] += checks.check_membership(req, cert)
                digest = hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
                if self.digests.setdefault(req.key(), digest) != digest:
                    rec["problems"].append("an exact repeat returned a different certificate")
        self.records.append(rec)
        return rec

    @staticmethod
    def _certificate(req, result, problems):
        if req.route == "api":
            return result.to_dict()
        try:
            cert = json.loads(result["stdout"])["certificate"]
        except (ValueError, KeyError) as exc:
            problems.append(f"CLI exit {result['exit']} without a report ({exc}): {result['stderr'].strip()}")
            return None
        want = checks.EXIT_CODES.get(cert.get("status"))
        if result["exit"] != want:
            problems.append(f"CLI exit {result['exit']} for a {cert.get('status')} certificate")
        return cert


def timed_call(fn):
    """(result, error text, elapsed ns) of ``fn()``; errors are recorded, not raised."""
    t0 = time.perf_counter_ns()
    try:
        result, error = fn(), None
    except Exception as exc:  # a failed request is counted and reported, the run goes on
        result, error = None, f"{type(exc).__name__}: {exc} | " + traceback.format_exc(limit=3).replace("\n", " ")
    return result, error, time.perf_counter_ns() - t0


# -- runs ------------------------------------------------------------------------


def settle_gc() -> None:
    """Collect, then freeze the survivors (inputs, records) out of later collections.

    The program's own garbage is still collected during requests; the
    benchmark's growing bookkeeping no longer lengthens those collections,
    and every round starts with empty young generations.
    """
    gc.collect()
    gc.freeze()


def run_timed(runner, checker, stream, size: int, seconds: float):
    """Closed loop over whole rounds until ``seconds`` of request time have passed.

    The first round warms up: it is checked but not timed.  Returns every
    latency and the request time of each round.
    """
    for req in stream[:size]:
        result, error, _ = timed_call(lambda: runner.execute(req))
        checker.check(req, result, error)
    latencies: list[int] = []
    round_ns: list[int] = []
    for start in range(size, len(stream) - size + 1, size):
        if sum(round_ns) >= seconds * 1e9 and len(latencies) >= MIN_REQUESTS:
            break
        settle_gc()
        busy = 0
        for req in stream[start : start + size]:
            result, error, dt = timed_call(lambda: runner.execute(req))
            busy += dt
            latencies.append(dt)
            checker.check(req, result, error)
            del result
        round_ns.append(busy)
    else:
        print(f"warning: stream exhausted after {len(latencies)} requests")
    return latencies, round_ns


def run_traced(runner, checker, subset, seconds: float, package_dir: str):
    """Alternate untraced and traced passes over a fixed request subset."""
    prof = tracer.LayerProfiler(package_dir)
    spans = tracer.Spans()
    plain_ns = traced_ns = 0
    passes = 0
    members_checked = 0
    while passes == 0 or plain_ns + traced_ns < seconds * 1e9:
        settle_gc()
        for req in subset:
            result, error, dt = timed_call(lambda: runner.execute(req))
            plain_ns += dt
            checker.check(req, result, error)
        settle_gc()
        for req in subset:
            t0 = time.perf_counter_ns()
            result, error, dt = timed_call(lambda: prof.run(lambda: runner.execute(req, spans)))
            traced_ns += dt
            spans.add(req.rid, "request", None, t0, t0 + dt)
            c0 = time.perf_counter_ns()
            rec = checker.check(req, result, error)
            spans.add(req.rid, "check", "request", c0, time.perf_counter_ns())
            members_checked += rec["members_checked"] or 0
            del result
        passes += 1
    return prof, spans, passes, plain_ns, traced_ns, members_checked


def layer_metrics(prof, n_req: int, hull_reqs: int, members_checked: int,
                  plain_ns: int, traced_ns: int) -> dict:
    total = sum(prof.self_ns.values()) or 1
    m: dict[str, tuple[float, str]] = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.self_ms_per_req"] = (prof.self_ns[layer] / 1e6 / n_req, "ms")
        m[f"{layer}.self_share"] = (prof.self_ns[layer] / total, "frac")
    certs = prof.count("contour", "nonvanishing_in_disk")
    m["contour.certificates_per_req"] = (certs / n_req, "count")
    m["contour.circle_evals_per_certificate"] = (
        prof.count("contour", "_circle_points") / certs if certs else 0.0, "count")
    m["contour.refine_calls_per_req"] = (prof.count("contour", "_refine_root") / n_req, "count")
    m["series.evaluate_calls_per_req"] = (prof.count("series", "evaluate_many") / n_req, "count")
    m["series.convolve_calls_per_req"] = (prof.count("series", "convolve") / n_req, "count")
    m["series.series_built_per_req"] = (
        prof.count("series", "TruncSeries.__post_init__") / n_req, "count")
    m["family.members_per_req"] = (prof.sampled_members / n_req, "count")
    m["family.sample_calls_per_req"] = (prof.count("family", "sample") / n_req, "count")
    m["duality.pool_builds_per_hull_req"] = (
        prof.count("duality", "build_transpose_pool") / hull_reqs if hull_reqs else 0.0, "count")
    m["duality.nearest_calls_per_req"] = (prof.count("duality", "_nearest_in_set") / n_req, "count")
    m["duality.members_checked_per_req"] = (members_checked / n_req, "count")
    m["specfile.parses_per_req"] = (
        prof.count("specfile", "parse_family", "parse_series") / n_req, "count")
    m["cli.main_calls_per_req"] = (prof.count("cli", "main") / n_req, "count")
    m["trace_overhead_frac"] = (traced_ns / plain_ns - 1.0 if plain_ns else 0.0, "frac")
    return m


# -- report ----------------------------------------------------------------------


def property_report(workload: str, records: list[dict]) -> list[str]:
    n = len(records) or 1
    statuses = [r["status"] for r in records]
    mix = {s: statuses.count(s) for s in checks.STATUSES}
    lines = [
        f"workload {workload}: {len(records)} requests checked",
        f"  repeated requests {sum(r['repeat'] for r in records) / n:.3f}, "
        f"repeated families {sum(r['family_repeat'] for r in records) / n:.3f}",
        "  verdicts " + ", ".join(f"{s} {mix[s]}" for s in checks.STATUSES),
    ]
    members = [r["members_checked"] for r in records if r["members_checked"] is not None]
    if members:
        lines.append(f"  members checked per certificate: median {statistics.median(members):g}, "
                     f"max {max(members)} (over {len(members)} certificates reporting it)")
    clouds = [r["cloud_points"] for r in records if r["cloud_points"] is not None]
    if clouds:
        lines.append(f"  cloud points: min {min(clouds)}, median {statistics.median(clouds):g}, "
                     f"max {max(clouds)}")
    digest = hashlib.sha256(
        "\n".join(f"{r['rid']}:{r['status']}:{r['cloud_points']}" for r in records).encode()
    ).hexdigest()[:16]
    lines.append(f"  verdict digest {digest}")
    return lines


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name in metrics:
        if not METRIC_NAME.match(name):
            raise ValueError(f"metric name {name!r} does not match {METRIC_NAME.pattern}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))


def main(argv=None) -> int:
    ns = parse_args(argv)
    cd = import_convdual()
    os.makedirs(OUT, exist_ok=True)
    spec_root = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT)
    try:
        return _run(ns, cd, spec_root)
    finally:
        shutil.rmtree(spec_root, ignore_errors=True)


def _run(ns, cd, spec_root: str) -> int:
    size = workloads.round_size(ns.workload)
    rounds = 2 + max(
        math.ceil(ns.seconds / ROUND_FLOOR_S[ns.workload]), math.ceil(MIN_REQUESTS / size))
    times = []
    for _ in range(SETUP_REPS):
        stream = spec_paths = None  # the previous repetition's inputs are dropped first
        stream, spec_paths, dt = setup_once(ns.workload, ns.seed, rounds, spec_root)
        times.append(dt)
    setup_s = statistics.median(times)
    runner = Runner(cd, spec_paths)
    checker = Checker()

    if ns.trace:
        subset = stream[size : 2 * size]
        prof, spans, passes, plain_ns, traced_ns, members = run_traced(
            runner, checker, subset, ns.seconds, os.path.dirname(cd.__file__))
        n_req = passes * len(subset)
        hull = passes * sum(r.command == "hull-check" for r in subset)
        metrics = layer_metrics(prof, n_req, hull, members, plain_ns, traced_ns)
        path = os.path.join(OUT, f"trace-{ns.workload}-seed{ns.seed}.json")
        spans.write(path, {
            "workload": ns.workload, "seed": ns.seed, "passes": passes,
            "requests": [r.rid for r in subset],
            "self_ns": dict(prof.self_ns),
            "calls": {f"{layer}:{name}": c for (layer, name), c in sorted(prof.calls.items())},
        })
        print(f"trace: {passes} passes over {len(subset)} requests, spans in {os.path.relpath(path, ROOT)}")
    else:
        latencies, round_ns = run_timed(runner, checker, stream, size, ns.seconds)
        busy = sum(round_ns)
        ms = np.asarray(latencies) / 1e6
        p95 = float(np.percentile(ms, 95))
        decided = [r for r in checker.records if r["status"] in checks.STATUSES]
        inconclusive = sum(r["status"] == "Inconclusive" for r in decided)
        metrics = {
            # median over rounds: each round holds the same template mix
            "requests_per_s": (statistics.median(size / (t / 1e9) for t in round_ns), "req/s"),
            "latency_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "latency_p95_ms": (p95, "ms"),
            "conclusive_frac": (1.0 - inconclusive / len(decided) if decided else 1.0, "frac"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        failed_now = sum(bool(r["problems"]) for r in checker.records)
        print(f"timed {len(ms)} requests in {len(round_ns)} rounds of {size} after one "
              f"warm-up round, {int(np.sum(ms > p95))} beyond p95, busy {busy / 1e9:.2f} s, "
              f"mean rate {len(ms) / (busy / 1e9):.6g} req/s, one client, closed loop")
        print(f"failed_frac = {failed_now / len(checker.records):.6g}")
        print(f"inconclusive_frac = {inconclusive / len(decided) if decided else 0.0:.6g}")
        points = sum(r["cloud_points"] or 0 for r in checker.records)
        if points:
            print(f"cloud_points_per_s = {points / (busy / 1e9):.6g} points/s")

    for line in property_report(ns.workload, checker.records):
        print(line)
    bad = [r for r in checker.records if r["problems"]]
    for r in bad[:20]:
        print(f"FAILED request {r['rid']} ({r['template']}): {'; '.join(r['problems'])}")
    emit(not bad, len(checker.records), len(bad), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
