"""End-to-end acceptance checks.

Each test exercises one acceptance requirement at its stated tolerance and
prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s`` to see them).
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from convdual.cli import main
from convdual.contour import DEFAULT_TOL, nonvanishing_in_disk, winding_number
from convdual.duality import (
    _nearest_in_set,
    build_transpose_pool,
    functional_image,
    Functional,
    in_dual,
    in_dual_hull,
    in_T,
    sigma_search,
)
from convdual.family import (
    Disk,
    FamilySpec,
    ParamGrid,
    Rational,
    border_decompose,
    complete_hull,
    counterexample_family,
    pencil_family,
    sample,
)
from convdual.series import TruncSeries, convolve, dilate, evaluate, from_rational, series_distance
from convdual.specfile import dump_family

from oracles import contour_convolution_value, planted_polynomial


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_acceptance_1_convolution_matches_contour_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        df = int(rng.integers(0, 33))
        dg = int(rng.integers(0, 33))
        fc = rng.normal(size=df + 1) + 1j * rng.normal(size=df + 1)
        gc = rng.normal(size=dg + 1) + 1j * rng.normal(size=dg + 1)
        h = convolve(TruncSeries.polynomial(fc), TruncSeries.polynomial(gc))
        zs = rng.uniform(0, 0.8, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        for z in zs:
            want = contour_convolution_value(fc, gc, complex(z))
            got = evaluate(h, complex(z)).value
            worst = max(worst, abs(want - got))
    dt = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-9 and dt < 10.0,
        f"max |eval - oracle| {worst:.2e} over 200 pairs x 20 points, {dt:.1f}s",
    )


def test_acceptance_2_winding_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    wind_errors = 0
    unsound = 0
    risky = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        roots = []
        while len(roots) < n:
            z = rng.uniform(0.05, 1.3) * np.exp(2j * np.pi * rng.uniform())
            # keep the contour clear of every root so the count is stable
            if abs(abs(z) - 0.9) > 0.03:
                roots.append(complex(z))
        f = TruncSeries.polynomial(planted_polynomial(roots))
        w = winding_number(f, 0.9)
        if w != sum(1 for z in roots if abs(z) < 0.9):
            wind_errors += 1
        if min(abs(z) for z in roots) < 0.99:
            risky += 1
            if nonvanishing_in_disk(f).verified:
                unsound += 1
    dt = time.perf_counter() - t0
    _report(
        2,
        wind_errors == 0 and unsound == 0 and dt < 30.0,
        f"winding errors {wind_errors}/500, unsound verdicts {unsound}/{risky}, {dt:.1f}s",
    )


def test_acceptance_3_pencil_dual_closed_form():
    t0 = time.perf_counter()
    V = pencil_family()
    axis = np.linspace(-2.0, 2.0, 41)
    band = 1e-3
    disagreements = 0
    checked = 0
    for a in axis:
        for b in axis:
            c = complex(a, b)
            if abs(c) > 2.0 or abs(abs(c) - 1.0) <= band:
                continue
            checked += 1
            g = TruncSeries.polynomial([1.0, c])
            d = in_dual(g, V)
            t = in_T(g, V)
            want = abs(c) <= 1.0
            if d.verified != want or d.falsified != (not want):
                disagreements += 1
            if t.verified != want or t.falsified != (not want):
                disagreements += 1
    dt = time.perf_counter() - t0
    _report(
        3,
        disagreements == 0 and dt < 60.0,
        f"{disagreements} disagreements over {checked} grid points outside the band, {dt:.1f}s",
    )


def test_acceptance_4_border_decomposition_round_trip():
    V = counterexample_family()
    grid = ParamGrid(disk_radial=8, disk_angular=16)
    failures = 0
    worst_rebuild = 0.0
    worst_xgap = 0.0
    orbit_misses = 0
    total = 0
    for f, tag in sample(V, grid):
        total += 1
        try:
            d0 = border_decompose(V, tag, branch=0)
        except Exception:
            failures += 1
            continue
        worst_rebuild = max(worst_rebuild, series_distance(dilate(d0.g, d0.x), f))
        if abs(d0.x) <= 1e-12:
            continue  # the constant e decomposes with a free border factor
        d1 = border_decompose(V, tag, branch=1)
        worst_xgap = max(worst_xgap, abs(abs(d0.x) - abs(d1.x)))
        k = V.generators[tag.gen_index].exponents[0]
        ratio = d1.g.coefficient(k) / d0.g.coefficient(k)
        candidates = [
            ratio ** (1.0 / k) * np.exp(2j * np.pi * m / k) for m in range(k)
        ]
        if not any(
            series_distance(dilate(d0.g, w), d1.g) <= 1e-12 for w in candidates
        ):
            orbit_misses += 1
    ok = (
        failures == 0
        and worst_rebuild <= 1e-12
        and worst_xgap <= 1e-12
        and orbit_misses == 0
    )
    _report(
        4,
        ok,
        f"{total} samples, {failures} failures, rebuild {worst_rebuild:.1e}, "
        f"|x| gap {worst_xgap:.1e}, {orbit_misses} orbit misses",
    )


def test_acceptance_5_counterexample_verifier(tmp_path):
    spec = tmp_path / "counterexample.spec"
    dump_family(counterexample_family(), spec)
    out = tmp_path / "ce.json"
    code = main(["verify", "--theorem", "CE", "--family", str(spec), "--out", str(out)])
    rep = json.loads(out.read_text())
    statuses = {c["check_id"]: c["status"] for c in rep["checks"]}
    ok = (
        code == 0
        and rep["summary"] == "PASS"
        and statuses.get("boundary-candidates-on-unit-circle") == "pass"
        and statuses.get("border-image-union-contains-zero") == "pass"
        and statuses.get("zero-is-interior-to-the-region") == "pass"
    )
    _report(5, ok, f"exit {code}, checks {statuses}")


def test_acceptance_6_transpose_dilation_reach():
    V = pencil_family()
    rng = np.random.default_rng(606)
    kernels: list[tuple[TruncSeries, float]] = []
    for i in range(25):
        c = rng.uniform(0.2, 0.95) * np.exp(2j * np.pi * rng.uniform())
        kernels.append((TruncSeries.polynomial([1.0, complex(c)]), abs(c)))
    pool = build_transpose_pool(V)
    extra = 0
    for g, _tag in pool.members:
        if extra >= 25:
            break
        cert = in_T(g, V)
        if cert.verified and cert.min_modulus >= 0.05:
            kernels.append((g, None))
            extra += 1
    assert len(kernels) == 50
    failures = []
    for g, amod in kernels:
        assert in_T(g, V).verified
        sigma_max = 8.0 if amod is None else max(8.0, 2.0 / amod)
        s = sigma_search(V, g, sigma_max=sigma_max, margin_floor=1e-6)
        if s is None or s <= 1.0 or not in_T(dilate(g, s), V).verified:
            failures.append("reach")
            continue
        if amod is not None and s < 1.0 / amod - 1e-3:
            failures.append(f"closed form: {s:.6f} < {1.0 / amod:.6f} - 1e-3")
    _report(
        6,
        not failures,
        f"50 kernels, {len(failures)} failures" + (f" ({failures[0]})" if failures else ""),
    )


def test_acceptance_7_dual_members_dilate_into_hull_transpose():
    V = pencil_family()
    cm = complete_hull(V)
    rng = np.random.default_rng(707)
    kernels: list[TruncSeries] = []
    for i in range(8):  # boundary cases with |a_1| = 1
        kernels.append(TruncSeries.polynomial([1.0, np.exp(2j * np.pi * i / 8)]))
    for _ in range(30):
        c = rng.uniform(0.05, 1.0) * np.exp(2j * np.pi * rng.uniform())
        kernels.append(TruncSeries.polynomial([1.0, complex(c)]))
    while len(kernels) < 50:
        x = 0.6 * (rng.normal() + 1j * rng.normal())
        y = 0.4 * (rng.normal() + 1j * rng.normal())
        if 0 < abs(x - y) <= 1.0 and abs(y) < 0.9:
            kernels.append(from_rational(complex(x), complex(y), order=48))
    failures = 0
    for g in kernels:
        assert in_dual(g, V).verified
        for r in (0.9, 0.99, 0.999):
            if not in_T(dilate(g, r), cm).verified:
                failures += 1
    _report(7, failures == 0, f"50 dual members x 3 radii, {failures} failures")


def test_acceptance_8_hull_matches_closed_form():
    t0 = time.perf_counter()
    V = pencil_family()
    pool = build_transpose_pool(V)
    axis = np.linspace(-2.0, 2.0, 41)
    band = 1e-3
    disagreements = 0
    checked = 0
    for a in axis:
        for b in axis:
            c = complex(a, b)
            if abs(abs(c) - 1.0) <= band:
                continue
            checked += 1
            h = TruncSeries.polynomial([1.0, c])
            cert = in_dual_hull(h, V, pool=pool)
            want = abs(c) <= 1.0
            if cert.verified != want or cert.falsified != (not want):
                disagreements += 1
    dt = time.perf_counter() - t0
    _report(
        8,
        disagreements == 0,
        f"{disagreements} disagreements over {checked} grid points outside the band, {dt:.1f}s",
    )


def test_acceptance_9_complete_hull_properties():
    families = [
        pencil_family(),
        counterexample_family(),
        FamilySpec((Rational(Disk(0.9), Disk(0.5)),)),
    ]
    rng = np.random.default_rng(909)
    kernels: list[TruncSeries] = []
    for _ in range(8):
        c = rng.uniform(0.1, 1.2) * np.exp(2j * np.pi * rng.uniform())
        kernels.append(TruncSeries.polynomial([1.0, complex(c)]))
    for _ in range(6):
        a = 0.5 * (rng.normal() + 1j * rng.normal())
        b = 0.3 * (rng.normal() + 1j * rng.normal())
        kernels.append(TruncSeries.polynomial([1.0, complex(a), complex(b)]))
    while len(kernels) < 20:
        x = 0.7 * (rng.normal() + 1j * rng.normal())
        y = 0.4 * (rng.normal() + 1j * rng.normal())
        if abs(y) < 0.9:
            kernels.append(from_rational(complex(x), complex(y), order=48))
    grid = ParamGrid(disk_radial=1, disk_angular=4, circle=8, segment=4)
    mismatched = 0
    for V in families:
        H = complete_hull(V)
        for g in kernels:
            a = in_dual(g, V, grid=grid).to_dict()
            b = in_dual(g, H, grid=grid).to_dict()
            if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
                mismatched += 1

    lam = Functional(TruncSeries.polynomial([0.0, 1.0]), label="a1")
    W = counterexample_family()
    direct = functional_image(lam, W, grid=ParamGrid(disk_radial=16, disk_angular=64))
    border = functional_image(
        lam, W, via_border=True, mesh_depth=8, mesh_angles=128, boundary=False
    )
    tolr = 3.0 * max(direct.mesh_spacing, border.mesh_spacing)
    cand = direct.boundary_candidates()
    gap_out = float(_nearest_in_set(cand, border.points).max())
    gap_in = float(_nearest_in_set(border.points, direct.points).max())
    routes_ok = gap_out <= tolr and gap_in <= tolr
    _report(
        9,
        mismatched == 0 and routes_ok,
        f"certificate mismatches {mismatched}/60; route gaps {gap_out:.3f}/{gap_in:.3f}"
        f" vs tolerance {tolr:.3f}",
    )


def _malformed_doc(rng: np.random.Generator, base: str) -> str:
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return "".join(chr(rng.integers(33, 126)) for _ in range(int(rng.integers(3, 40))))
    if kind == 1:
        return rng.choice(["42", "[1, 2]", '"family"', "null", "true"])
    if kind == 2:
        value = [7, "x", None, {"shape": "disk"}][int(rng.integers(0, 4))]
        return json.dumps({"generators": value})
    if kind == 3:
        return json.dumps({"generators": []})
    if kind == 4:
        return json.dumps({"generators": [{"kind": "mystery"}]})
    if kind == 5:
        bad = rng.choice(
            [
                {"kind": "pencil", "exponents": [0], "domains": [{"shape": "disk", "radius": 1}]},
                {"kind": "pencil", "exponents": [1], "domains": [{"shape": "blob", "radius": 1}]},
                {"kind": "pencil", "exponents": [1], "domains": [{"shape": "disk", "radius": -1}]},
                {"kind": "pencil", "exponents": [1, 2], "domains": [{"shape": "disk", "radius": 1}]},
                {"kind": "fixed", "coeffs": []},
                {"kind": "fixed", "coeffs": [1], "tail": {"M": 1}},
                {"kind": "rational", "x_domain": {"shape": "disk", "radius": 1}},
            ]
        )
        return json.dumps({"generators": [bad]})
    if kind == 6:
        stripped = base.strip()
        cut = int(rng.integers(1, len(stripped) - 1))
        return stripped[:cut]
    return base.replace("false", '"false"', 1)


def test_acceptance_10_determinism_and_robustness(tmp_path):
    t0 = time.perf_counter()
    pairs_equal = True
    for theorem in ("CE", "T1"):
        a = tmp_path / f"{theorem}_a.json"
        b = tmp_path / f"{theorem}_b.json"
        assert main(["verify", "--theorem", theorem, "--out", str(a)]) == 0
        assert main(["verify", "--theorem", theorem, "--out", str(b)]) == 0
        pairs_equal = pairs_equal and a.read_bytes() == b.read_bytes()

    base = json.dumps(
        {
            "generators": [
                {"kind": "pencil", "exponents": [1], "domains": [{"shape": "disk", "radius": 1.0}]}
            ],
            "dilation_slot": False,
        }
    )
    rng = np.random.default_rng(1010)
    bad_exits = 0
    spec = tmp_path / "fuzz.spec"
    sink = io.StringIO()
    for _ in range(1000):
        spec.write_text(_malformed_doc(rng, base))
        with contextlib.redirect_stderr(sink):
            code = main(["dual-check", "--family", str(spec), "--kernel", "1+0.5z"])
        if code != 3:
            bad_exits += 1
    dt = time.perf_counter() - t0
    _report(
        10,
        pairs_equal and bad_exits == 0,
        f"byte-identical reports {pairs_equal}, {bad_exits}/1000 fuzzed specs escaped exit 3, "
        f"{dt:.1f}s",
    )
