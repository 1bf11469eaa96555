"""Spec-file parsing, series mini-expressions, and the command-line front end."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from convdual import cli
from convdual.cli import build_parser, main
from convdual.duality import in_dual_hull
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    Pencil,
    Rational,
    Segment,
    counterexample_family,
    default_kernel_family,
    pencil_family,
)
from convdual.series import TruncSeries, convolve, from_rational, series_distance
from convdual.specfile import (
    MAX_ORDER,
    SpecFileError,
    _coeff_array,
    _complex,
    dump_family,
    family_to_dict,
    load_family,
    parse_family,
    parse_series,
    tail_to_json,
)

PENCIL_DOC = json.dumps(
    {
        "generators": [
            {"kind": "pencil", "exponents": [1], "domains": [{"shape": "disk", "radius": 1.0}]}
        ],
        "dilation_slot": False,
    }
)


@pytest.fixture
def pencil_path(tmp_path):
    p = tmp_path / "pencil1.spec"
    p.write_text(PENCIL_DOC)
    return str(p)


# ---------------------------------------------------------------- spec files


def test_parse_family_minimal_pencil():
    V = parse_family(PENCIL_DOC)
    assert len(V.generators) == 1
    gen = V.generators[0]
    assert isinstance(gen, Pencil)
    assert gen.exponents == (1,)
    assert isinstance(gen.domains[0], Disk)
    assert not V.dilation_slot


@pytest.mark.parametrize(
    "builder",
    [pencil_family, counterexample_family, default_kernel_family],
)
def test_family_roundtrip(builder):
    V = builder()
    W = parse_family(json.dumps(family_to_dict(V)))
    assert family_to_dict(W) == family_to_dict(V)


def test_dump_and_load_roundtrip(tmp_path):
    path = tmp_path / "fam.spec"
    V = counterexample_family()
    dump_family(V, path)
    W = load_family(path)
    assert family_to_dict(W) == family_to_dict(V)


def test_roundtrip_all_generator_kinds():
    V = FamilySpec(
        generators=(
            Pencil((1, 3), (Disk(1.0), Circle(0.5))),
            Rational(Segment(0.0, 0.9), Circle(0.25), order=48),
            Fixed(TruncSeries.polynomial([1, 0.5, 0.25j])),
        ),
        dilation_slot=True,
    )
    W = parse_family(json.dumps(family_to_dict(V)))
    assert family_to_dict(W) == family_to_dict(V)
    fixed = [g for g in W.generators if isinstance(g, Fixed)][0]
    assert series_distance(fixed.series, V.generators[2].series) == 0.0


@pytest.mark.parametrize(
    "series, want",
    [
        (TruncSeries.polynomial([1, 0.5]), "exact"),
        (TruncSeries([1, 0.5], tail=None), None),
        (TruncSeries([1, 0.5], tail=(2.0, 1.5)), {"M": 2.0, "rho": 1.5}),
    ],
)
def test_tail_encoding_shared_by_spec_files_and_reports(series, want):
    assert tail_to_json(series) == want
    fam = family_to_dict(FamilySpec((Fixed(series),)))
    assert fam["generators"][0]["tail"] == want
    W = parse_family(json.dumps(fam))
    assert tail_to_json(W.generators[0].series) == want


def test_cli_convolve_reports_inexact_tail(capsys):
    code, rep = _run(capsys, "convolve", "--f", "rat(0.5, 0.2)", "--g", "rat(0.1, 0.3)")
    assert code == 0
    assert rep["result"]["tail"] == tail_to_json(
        convolve(parse_series("rat(0.5, 0.2)"), parse_series("rat(0.1, 0.3)"))
    )
    assert set(rep["result"]["tail"]) == {"M", "rho"}


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("[]", "expected an object"),
        ("{}", "missing required field 'generators'"),
        ('{"generators": "x"}', "generators: expected a list"),
        ('{"generators": []}', "at least one generator"),
        ('{"generators": [5]}', "generators[0]: expected an object"),
        ('{"generators": [{"kind": "blob"}]}', "unknown generator kind"),
        (
            '{"generators": [{"kind": "pencil", "exponents": [], "domains": []}]}',
            "at least one exponent",
        ),
        (
            '{"generators": [{"kind": "pencil", "exponents": [0], '
            '"domains": [{"shape": "disk", "radius": 1}]}]}',
            "exponents must be >= 1",
        ),
        (
            '{"generators": [{"kind": "pencil", "exponents": [1, 1], '
            '"domains": [{"shape": "disk", "radius": 1}, {"shape": "disk", "radius": 1}]}]}',
            "distinct",
        ),
        (
            '{"generators": [{"kind": "pencil", "exponents": [1], '
            '"domains": [{"shape": "disk", "radius": -2}]}]}',
            "nonnegative",
        ),
        (
            '{"generators": [{"kind": "pencil", "exponents": [1, 2], '
            '"domains": [{"shape": "disk", "radius": 1}]}]}',
            "one parameter domain per exponent",
        ),
        (
            '{"generators": [{"kind": "fixed", "coeffs": []}]}',
            "coeffs",
        ),
        ('{"generators": [{"kind": "fixed", "coeffs": [1], "tail": {"M": 1}}]}', "rho"),
    ],
)
def test_malformed_family_diagnostics(doc, fragment):
    with pytest.raises(SpecFileError) as exc:
        parse_family(doc)
    assert fragment in str(exc.value)


DISK = {"shape": "disk", "radius": 0.5}
HUGE_ORDERS = [
    ({"kind": "rational", "x_domain": DISK, "y_domain": DISK, "order": 10**8}, ".order"),
    ({"kind": "rational", "x_domain": DISK, "y_domain": DISK, "order": MAX_ORDER + 1}, ".order"),
    ({"kind": "pencil", "exponents": [1, 10**8], "domains": [DISK, DISK]}, ".exponents[1]"),
    ({"kind": "pencil", "exponents": [MAX_ORDER + 1], "domains": [DISK]}, ".exponents[0]"),
]


@pytest.mark.parametrize("gen, field", HUGE_ORDERS)
def test_orders_above_the_limit_are_rejected_before_allocating(gen, field):
    tracemalloc.start()
    try:
        with pytest.raises(SpecFileError, match=f"MAX_ORDER = {MAX_ORDER}") as info:
            parse_family(json.dumps({"generators": [gen]}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.path.endswith(field)
    assert peak < 1 << 20


def test_orders_at_the_limit_are_accepted():
    doc = {"generators": [
        {"kind": "rational", "x_domain": DISK, "y_domain": DISK, "order": MAX_ORDER},
        {"kind": "pencil", "exponents": [1, MAX_ORDER], "domains": [DISK, DISK]},
    ]}
    V = parse_family(json.dumps(doc))
    assert V.generators[0].order == MAX_ORDER and V.generators[1].exponents == (1, MAX_ORDER)


@pytest.mark.parametrize("command", ["dual-check", "hull-check", "image"])
def test_cli_spec_order_above_the_limit_exits_three(capsys, tmp_path, command):
    spec = tmp_path / "huge.spec"
    spec.write_text(json.dumps({"generators": [HUGE_ORDERS[0][0]]}))
    assert main([command, "--family", str(spec), "--kernel", "1+0.5z"]) == 3
    assert f"MAX_ORDER = {MAX_ORDER}" in capsys.readouterr().err


def test_cli_oversized_member_table_exits_three(capsys, tmp_path):
    # every product with the exact kernel is an exact polynomial read from
    # the table: 811801 sampled members x 4097 coefficients, 49.6 GiB
    spec = tmp_path / "wide.spec"
    spec.write_text(json.dumps({"generators": [
        {"kind": "rational", "x_domain": DISK, "y_domain": DISK, "order": MAX_ORDER}]}))
    argv = ["dual-check", "--family", str(spec), "--kernel", f"1+z^{MAX_ORDER}",
            "--trunc", str(MAX_ORDER), "--grid", "30x30"]
    with mock.patch.object(Rational, "base_rows", side_effect=AssertionError("allocated")):
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"limit of {1 << 25} entries" in err


@pytest.mark.parametrize("grid", ["1x3000000", "1x30000000"])
def test_cli_oversized_grid_exits_three_before_listing_parameters(capsys, tmp_path, grid):
    # x on a circle, y on a disk: about grid**2 members, refused on their count
    spec = tmp_path / "rational.spec"
    spec.write_text(json.dumps({"generators": [
        {"kind": "rational", "x_domain": {"shape": "circle", "radius": 0.5}, "y_domain": DISK}]}))
    argv = ["dual-check", "--family", str(spec), "--kernel", "1+0.5z", "--grid", grid]
    listed = AssertionError("parameters listed")
    start = time.perf_counter()
    with mock.patch.object(Disk, "points", side_effect=listed), \
         mock.patch.object(Circle, "points", side_effect=listed):
        assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: grid would produce more than 1000000 members; "
        "coarsen the grid or raise max_members\n"
    )


@pytest.mark.parametrize("command", ["t-check", "perp-check"])
def test_cli_oversized_rational_slices_exit_three_before_listing_points(capsys, tmp_path, command):
    # the same family through the exact x-slices of the pairing: one slice
    # per y point, refused on their count
    spec = tmp_path / "rational.spec"
    spec.write_text(json.dumps({"generators": [
        {"kind": "rational", "x_domain": {"shape": "circle", "radius": 0.5}, "y_domain": DISK}]}))
    argv = [command, "--family", str(spec), "--kernel", "1+0.5z", "--grid", "1x30000000"]
    listed = AssertionError("points listed")
    start = time.perf_counter()
    with mock.patch.object(Disk, "points", side_effect=listed), \
         mock.patch.object(Circle, "points", side_effect=listed):
        assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: grid would produce more than 1000000 members; "
        "coarsen the grid or raise max_members\n"
    )


# numbers as JSON gives them, and what else a coefficient list may hold
json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.sampled_from([0.0, -0.0, 2**53 + 1, -(2**53) - 1, 2**64 + 3, 10**308 * 2, 10**400, -(10**400)]),
)
# JSON has no inf or NaN, but the pass is checked on any list
numbers_or_non_finite = json_numbers | st.sampled_from([math.inf, -math.inf, math.nan])
coefficient = st.one_of(
    numbers_or_non_finite,
    st.lists(numbers_or_non_finite, min_size=2, max_size=2),
    st.recursive(
        st.booleans() | st.none() | st.text(max_size=2) | json_numbers,
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=5,
    ),
)


def _per_element(coeffs, path):
    return np.array([_complex(c, f"{path}[{i}]") for i, c in enumerate(coeffs)], dtype=complex)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(coefficient, min_size=1, max_size=6))
@example([1.0, [-0.0, 0.5], 2**53 + 1, [True, 1.0]])
@example([1, [1.0]])
@example([1, [1.0, 2.0, 3.0]])
@example([1, [[1.0, 2.0], 3.0]])
@example([1, "2"])
@example([1, 10**400])
@example([1, [10**400, -(10**400)]])
@example([1, 1e308, 1e308])
def test_typed_coefficient_pass_reads_each_element_alike(coeffs):
    # bitwise the per-element reading, or its exception with the same text
    try:
        want = _per_element(coeffs, "g.coeffs")
    except (SpecFileError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            _coeff_array(coeffs, "g.coeffs")
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = _coeff_array(coeffs, "g.coeffs")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_json_syntax_error_reports_line_and_column():
    with pytest.raises(SpecFileError) as exc:
        parse_family('{"generators": [}', source="bad.spec")
    msg = str(exc.value)
    assert "bad.spec" in msg and "line" in msg and "column" in msg


def test_nan_constants_rejected():
    doc = '{"generators": [{"kind": "fixed", "coeffs": [NaN]}]}'
    with pytest.raises(SpecFileError):
        parse_family(doc)


# --------------------------------------------------------- series expressions


@pytest.mark.parametrize(
    "expr, coeffs",
    [
        ("1+0.5z-0.25z^2", [1, 0.5, -0.25]),
        ("z", [0, 1]),
        ("1", [1]),
        ("-z^3", [0, 0, 0, -1]),
        ("1 + 0.5*z", [1, 0.5]),
        ("z**2+1", [1, 0, 1]),
        ("(0.3+0.4j)z^3+1", [1, 0, 0, 0.3 + 0.4j]),
        ("z+z", [0, 2]),
        ("1e-2z^2", [0, 0, 0.01]),
        ("[1,-2]", [1, -2]),
        ("[[1,0],[0,1]]", [1, 1j]),
    ],
)
def test_parse_series_polynomials(expr, coeffs):
    f = parse_series(expr)
    want = TruncSeries.polynomial(coeffs)
    assert series_distance(f, want) == 0.0
    assert f.is_exact


def test_parse_series_rational_matches_constructor():
    f = parse_series("rat(0.5, -0.25)", order=32)
    g = from_rational(0.5, -0.25, order=32)
    assert series_distance(f, g) == 0.0
    assert f.tail is not None and f.tail.rho == g.tail.rho


def test_parse_series_respects_truncation_order():
    f = parse_series("rat(0.9, 0.1)", order=16)
    assert f.order == 16


@pytest.mark.parametrize(
    "expr",
    [
        "",
        "z^",
        "1+*z",
        "q+1",
        "1+NaNz",
        "z^-2",
        "rat(1)",
        "rat(a, b)",
        "[1, [2]]",
        "[]",
        "1+z^99999",
    ],
)
def test_parse_series_rejects_malformed(expr):
    with pytest.raises(SpecFileError):
        parse_series(expr, order=64)


# ------------------------------------------------------------------ cli runs


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_cli_convolve_reports_series(capsys):
    code, rep = _run(capsys, "convolve", "--f", "1+2z+3z^2", "--g", "1-z", "--eval", "0.5")
    assert code == 0
    assert rep["result"]["coeffs"] == [[1.0, 0.0], [-2.0, 0.0]]
    assert rep["value"]["value"] == [0.0, 0.0]
    assert rep["value"]["error_bound"] == 0.0


def test_cli_zeros_reports_winding(capsys):
    code, rep = _run(capsys, "zeros", "--series", "[1,-2]", "--radius", "0.9")
    assert code == 0
    assert rep["winding"] == 1
    assert 0 < rep["min_modulus"] < 1


def test_cli_dual_check_verified(capsys, pencil_path):
    code, rep = _run(capsys, "dual-check", "--family", pencil_path, "--kernel", "1+0.5z")
    assert code == 0
    assert rep["certificate"]["status"] == "Verified"


def test_cli_dual_check_falsified_with_witness(capsys, pencil_path):
    code, rep = _run(capsys, "dual-check", "--family", pencil_path, "--kernel", "1+1.2z")
    assert code == 1
    cert = rep["certificate"]
    assert cert["status"] == "Falsified"
    w = complex(*cert["witness"])
    assert abs(w - (-1 / 1.2)) < 1e-9


def test_cli_t_and_perp_checks(capsys, pencil_path):
    code, rep = _run(capsys, "t-check", "--family", pencil_path, "--kernel", "1+0.5z")
    assert code == 0 and rep["certificate"]["status"] == "Verified"
    code, rep = _run(capsys, "perp-check", "--family", pencil_path, "--kernel", "1+0.5z")
    assert code == 0 and rep["certificate"]["status"] == "Verified"


def test_cli_hull_check_threshold(capsys, pencil_path):
    code, _ = _run(capsys, "hull-check", "--family", pencil_path, "--kernel", "1+0.99z")
    assert code == 0
    code, rep = _run(capsys, "hull-check", "--family", pencil_path, "--kernel", "1+1.05z")
    assert code == 1
    assert rep["certificate"]["status"] == "Falsified"


def test_cli_image_record_and_csv(capsys, pencil_path, tmp_path):
    out = tmp_path / "cloud.csv"
    code, rep = _run(
        capsys, "image", "--family", pencil_path, "--format", "csv", "--out", str(out)
    )
    assert code == 0
    assert rep["points"] > 0 and rep["route"] == "direct"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,tag,flag"
    assert len(lines) == rep["points"] + 1
    for row in lines[1:3]:
        re_, im_, tag, flag = row.split(",", 3)
        float(re_), float(im_)
        assert flag.rsplit(",", 1)[-1] in {"0", "1"}


def test_cli_image_via_border_route(capsys, pencil_path):
    code, rep = _run(capsys, "image", "--family", pencil_path, "--via-border", "--mesh-depth", "6")
    assert code == 0
    assert rep["route"] == "border"


def test_cli_border_roundtrip(capsys, pencil_path):
    code, rep = _run(capsys, "border", "--family", pencil_path)
    assert code == 0
    assert rep["decompositions"]["max_reconstruction_error"] <= 1e-12
    shapes = [d["shape"] for g in rep["border"]["generators"] for d in g["domains"]]
    assert shapes == ["circle"]


def test_cli_verify_ce_exit_zero_and_witness(capsys):
    code, rep = _run(capsys, "verify", "--theorem", "CE")
    assert code == 0
    assert rep["summary"] == "PASS"
    zero = [c for c in rep["checks"] if c["check_id"] == "border-image-union-contains-zero"]
    assert zero and zero[0]["witness"]["value"] == [0.0, 0.0]
    assert zero[0]["witness"]["distance"] <= 1e-12


def test_cli_verify_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--theorem", "C3", "--out", str(a)]) == 0
    assert main(["verify", "--theorem", "C3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_honors_family_flag(capsys, pencil_path):
    code, rep = _run(capsys, "verify", "--theorem", "T1", "--family", pencil_path)
    assert code == 0
    assert rep["theorem"] == "T1"


def test_cli_out_writes_report(capsys, pencil_path, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["dual-check", "--family", pencil_path, "--kernel", "1+0.5z", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certificate"]["status"] == "Verified"


# ------------------------------------------------------------- cli exit codes


def test_cli_malformed_spec_exits_three(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text('{"generators": "nope"}')
    code = main(["dual-check", "--family", str(bad), "--kernel", "1+0.5z"])
    capsys.readouterr()
    assert code == 3


def test_cli_missing_spec_exits_three(capsys, tmp_path):
    code = main(["dual-check", "--family", str(tmp_path / "missing.spec"), "--kernel", "z"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("command, kind", [
    ("t-check", "pencil"), ("perp-check", "pencil"), ("dual-check", "pencil"),
    ("hull-check", "pencil"), ("t-check", "rational"), ("perp-check", "rational"),
    ("hull-check", "rational"), ("t-check", "fixed"), ("perp-check", "fixed"),
    ("hull-check", "fixed"),
])
def test_cli_moduli_past_the_float_range_exit_three(capsys, tmp_path, command, kind):
    # abs() of the kernel's coefficient, or of a pairing with it, overflows:
    # the closed forms, the knapsack, the x-slices and the pool's pairing
    # answer with an error message; with fixed members (or a fixed pool
    # kernel) the products are finite and their sum at z = 1 is not
    gen = {"kind": "pencil", "exponents": [1], "domains": [DISK]}
    kernel = "[1, [1.5e308, 1.5e308]]"
    if kind == "rational":
        gen = {"kind": "rational", "x_domain": {"shape": "circle", "radius": 0.5},
               "y_domain": DISK}
    argv = []
    if kind == "fixed" and command == "hull-check":
        kernels = tmp_path / "kernels.spec"
        kernels.write_text(json.dumps({"generators": [{"kind": "fixed", "coeffs": [1, 1, 1]}]}))
        argv, kernel = ["--kernels", str(kernels)], "[1, 1.7e308, 1.7e308]"
    elif kind == "fixed":
        gen = {"kind": "fixed", "coeffs": [1] * 6}
        kernel = "[1, 1.7e308, 1.7e308, -1.7e308, -1.7e308, -1]"
    spec = tmp_path / "family.spec"
    spec.write_text(json.dumps({"generators": [gen]}))
    argv = [command, "--family", str(spec), "--kernel", kernel] + argv
    assert main(argv) == 3
    err = capsys.readouterr().err
    expected = "has a modulus beyond the float range"
    if kind == "fixed":
        expected = "pairing value is not finite (overflow in the sum)"
    assert err.startswith("error: ") and expected in err


def test_cli_usage_errors_exit_three(capsys, pencil_path):
    cases = [
        ["dual-check", "--family", pencil_path],  # missing --kernel
        ["dual-check", "--family", pencil_path, "--kernel", "1+0.5z", "--grid", "bogus"],
        ["dual-check", "--family", pencil_path, "--kernel", "1+0.5z", "--trunc", "2"],
        ["dual-check", "--family", pencil_path, "--kernel", "1+0.5z", "--format", "csv"],
        ["zeros", "--series", "[1,-2]", "--radius", "1.5"],
        ["zeros", "--series", "1+NaNz", "--radius", "0.5"],
        ["image", "--family", pencil_path, "--format", "csv"],  # csv without --out
        ["image", "--family", pencil_path, "--mesh-depth", "99"],
        ["verify", "--theorem", "Q7"],
        ["no-such-command"],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code == 3, argv


@pytest.mark.parametrize("command", ["image", "verify"])
def test_image_and_verify_take_the_common_options(command):
    parser = build_parser()
    extra = ["--family", "f.json"] if command == "image" else ["--theorem", "T1"]
    ns = parser.parse_args(
        [command, *extra, "--grid", "3x5", "--trunc", "32", "--tol", "1e-8",
         "--out", "r.json", "--format", "csv"]
    )
    assert (ns.grid.disk_radial, ns.grid.disk_angular) == (3, 5)
    assert (ns.trunc, ns.tol, ns.out, ns.format) == (32, 1e-8, "r.json", "csv")
    defaults = parser.parse_args([command, *extra])
    assert (defaults.grid, defaults.trunc, defaults.tol, defaults.out) == (None, 64, None, None)
    assert defaults.format == "structured-record"


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cli_reused_parser_matches_a_fresh_parser(capsys, pencil_path):
    argvs = [
        ["hull-check", "--family", pencil_path, "--kernel", "1+0.5z", "--grid", "8by16"],
        ["hull-check", "--family", pencil_path, "--kernel", "1+0.5z"],
        ["--help"],
        ["t-check", "--family", pencil_path, "--kernel", "1+2z"],
        ["hull-check", "--help"],
        ["hull-check", "--family", pencil_path, "--kernel", "1+1.05z"],
    ]

    def run(fresh: bool) -> list:
        runs = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((code, out, err))
        return runs

    fresh = run(fresh=True)
    assert [code for code, _, _ in fresh] == [3, 0, 0, 1, 0, 1]
    assert "usage:" in fresh[0][2] and "usage:" in fresh[2][1]
    assert run(fresh=False) == fresh
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


CIRCLE_DOC = json.dumps(
    {
        "generators": [
            {"kind": "pencil", "exponents": [1], "domains": [{"shape": "circle", "radius": 0.5}]}
        ],
        "dilation_slot": False,
    }
)


@pytest.mark.parametrize(
    "doc, kernel, code",
    [
        (PENCIL_DOC, "1+0.5z", 0),  # Verified by the pool's row pass
        (CIRCLE_DOC, "1+2z", 1),  # a pool kernel annihilates it
        (PENCIL_DOC, "[1, 0.1, 0.2, 0.1, 0.05, 0.02, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, "
                     "0.01, 0.01, 0.01, 0.01, 0.01]", 0),  # order above kmax: rationals one by one
    ],
    ids=["verified", "pool-kernel", "per-kernel"],
)
def test_cli_module_hull_check_in_a_fresh_interpreter(tmp_path, doc, kernel, code):
    spec = tmp_path / "family.json"
    spec.write_text(doc)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "convdual.cli", "hull-check", "--family", str(spec), "--kernel", kernel],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    report = json.loads(proc.stdout)
    want = in_dual_hull(parse_series(kernel), parse_family(doc)).to_dict()
    assert report["certificate"] == json.loads(json.dumps(want))


def test_cli_never_raises_on_fuzzed_argv(capsys):
    rng = np.random.default_rng(7)
    tokens = ["--family", "--kernel", "verify", "image", "x", "1+z", "--grid", "3x", "--", ""]
    for _ in range(100):
        argv = [tokens[i] for i in rng.integers(0, len(tokens), size=rng.integers(1, 5))]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3)


def test_cli_tol_flag_tightens_witness_bar(capsys, pencil_path):
    code, rep = _run(
        capsys,
        "dual-check",
        "--family",
        pencil_path,
        "--kernel",
        "1+0.5z",
        "--tol",
        "1e-6",
    )
    assert code == 0
    assert rep["certificate"]["status"] == "Verified"


def test_cli_grid_flag_threads_through(capsys, pencil_path):
    code, rep = _run(capsys, "image", "--family", pencil_path, "--grid", "4x8")
    assert code == 0
    assert rep["points"] == 4 * 8 + 1  # rings plus center
