"""Hostile input at the entry points: the command line and spec parsing.

Whatever the expression, radius, grid or spec text, ``cli.main`` answers
with an exit code 0-3 and a readable message, never an ``internal error``
or a numpy warning, and ``parse_family`` raises nothing but
:class:`SpecFileError`, each call within two seconds of CPU time (wall
time on a shared machine would measure its neighbours too).  The
membership commands, ``image`` (direct route) and ``border`` read their
families from spec files written by the same generators.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from convdual import cli
from convdual.specfile import SpecFileError, parse_family

CALL_SECONDS = 2.0
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

numbers = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, 1e300, -1e300, 1e-320, 2.0, 0.999]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(-10**6, 10**6),
)
number_text = numbers.map(repr) | st.sampled_from(["nan", "inf", "-inf", "1e999", "", "-", ".", "1j"])


@st.composite
def terms(draw):
    signs = st.sampled_from(["", "-", "+"])
    coef = draw(signs | number_text | number_text.map(lambda t: f"({t}+0.5j)"))
    power = draw(st.sampled_from(["", "z", "z^0", "z^1"]) | st.integers(0, 80).map(lambda k: f"z^{k}"))
    return coef + draw(st.sampled_from(["", "*"])) + power


expressions = st.one_of(
    st.lists(terms(), min_size=1, max_size=4).map(lambda ts: "+".join(ts).replace("+-", "-")),
    st.tuples(number_text, number_text).map(lambda xy: f"rat({xy[0]}, {xy[1]})"),
    st.lists(numbers | st.lists(numbers, max_size=3), max_size=6).map(json.dumps),
    st.sampled_from(["1+0.5z^4", "1+z^64", "z-0.5", "rat(1,0.5)", "[1, [0, 1]]", "((z)", "z^^2"]),
    st.text(max_size=16),
)
radii = st.sampled_from([1.0, 0.5, 5e-324, 1e-300]) | st.floats(0.0, 1.0, exclude_min=True)
truncs = st.integers(8, 64)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
         warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    elapsed = time.process_time() - start
    assert code in (0, 1, 2, 3), (argv, code)
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])
    assert elapsed < CALL_SECONDS, (argv, elapsed)


@FUZZ
@given(expressions, radii, truncs)
@example("1+z^64", 1.0, 64)  # a zero on the circle: the winding pass runs to its budget
@example("rat(0.999, 0.999)", 1.0, 64)
def test_zeros_command_survives_any_expression(expr, r, trunc):
    _run(["zeros", "--series", expr, "--radius", repr(r), "--trunc", str(trunc)])


@FUZZ
@given(expressions, expressions, truncs, st.none() | st.complex_numbers(max_magnitude=2.0))
@example("1+1e300z", "1+1e300z", 8, None)  # the product overflows: an error message, no numpy warning
def test_convolve_command_survives_any_expressions(f, g, trunc, at):
    argv = ["convolve", "--f", f, "--g", g, "--trunc", str(trunc)]
    if at is not None:
        argv += ["--eval", f"{at.real!r}{at.imag:+}j"]
    _run(argv)


json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
pairs = st.lists(numbers, min_size=2, max_size=2)
domains = st.one_of(
    st.fixed_dictionaries({"shape": st.sampled_from(["disk", "circle"]), "radius": numbers}),
    st.fixed_dictionaries({"shape": st.just("segment"), "from": numbers | pairs, "to": numbers | pairs}),
    st.fixed_dictionaries({"shape": st.sampled_from(["disk", "square"]) | json_values},
                          optional={"radius": json_values}),
)


@st.composite
def pencils(draw):
    exponent = st.integers(-1, 6) | st.sampled_from([10**6, 2.5])
    exponents = draw(st.lists(exponent, min_size=1, max_size=2))
    count = len(exponents) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    shapes = draw(st.lists(domains, min_size=count, max_size=count))
    return {"kind": "pencil", "exponents": exponents, "domains": shapes}


rationals = st.fixed_dictionaries(
    {"kind": st.just("rational"), "x_domain": domains, "y_domain": domains},
    optional={"order": st.integers(-2, 10**9) | json_values},
)
fixeds = st.fixed_dictionaries(
    {"kind": st.just("fixed"), "coeffs": st.lists(numbers | pairs, max_size=5) | json_values},
    optional={"tail": st.sampled_from(["exact", None]) | json_values
              | st.fixed_dictionaries({"M": numbers, "rho": numbers})},
)
# mostly well-formed generators with hostile values, some structural junk
generators = st.one_of(pencils(), rationals, fixeds, pencils(), rationals, fixeds, json_values)
specs = st.one_of(
    st.fixed_dictionaries({"generators": st.lists(generators, min_size=1, max_size=3)},
                          optional={"dilation_slot": st.booleans()}),
    st.fixed_dictionaries({"generators": st.lists(generators, max_size=3) | json_values},
                          optional={"dilation_slot": json_values}),
    json_values,
)


@settings(FUZZ, max_examples=150)
@given(specs.map(json.dumps) | st.text(max_size=40))
@example('{"generators": [{"kind": "rational", "x_domain": {"shape": "disk", "radius": 1},'
         ' "y_domain": {"shape": "disk", "radius": 0.5}, "order": 1000000000}]}')
@example('{"generators": [{"kind": "pencil", "exponents": [1], "domains": [{"shape": "disk",'
         ' "radius": NaN}]}]}')
def test_parse_family_raises_only_spec_errors(text):
    start = time.process_time()
    try:
        parse_family(text)
    except SpecFileError:
        pass
    assert time.process_time() - start < CALL_SECONDS


grids = st.sampled_from([None, "1x30000000", "2000x2000", "30000000x1", "3x5", "1x1"])
# hull-check's kernel family: three exact fixed kernels keep the pool build to
# three in_T calls whose products with exact members are all paired in one pass
HULL_KERNELS = json.dumps({"generators": [
    {"kind": "fixed", "coeffs": [1, 0.5]},
    {"kind": "fixed", "coeffs": [1, [0, -0.3], 0.2]},
    {"kind": "fixed", "coeffs": [1, 0.25, [0.1, 0.1]]},
]})


@settings(FUZZ, max_examples=80)
@given(st.sampled_from(["dual-check", "t-check", "perp-check", "hull-check", "border", "image"]),
       specs.map(json.dumps) | st.text(max_size=40), expressions, grids)
@example("dual-check", '{"generators": [{"kind": "rational", "x_domain": {"shape": "circle",'
         ' "radius": 0.5}, "y_domain": {"shape": "circle", "radius": 0.5}}]}', "rat(0.5, 0.3)",
         "2000x2000")  # 4 million members: the budget error before a parameter is listed
@example("border", '{"generators": [{"kind": "pencil", "exponents": [1], "domains":'
         ' [{"shape": "disk", "radius": 1}]}], "dilation_slot": true}', "1", "1x30000000")
@example("t-check", '{"generators": [{"kind": "pencil", "exponents": [2], "domains": [{"shape":'
         ' "segment", "from": 0, "to": 1}]}, {"kind": "fixed", "coeffs": [1, 1e300]}]}',
         "1+1e300z", "3x5")  # a fixed member whose pairing overflows
@example("dual-check", '{"generators": [{"kind": "rational", "x_domain": {"shape": "segment",'
         ' "from": 0, "to": [1.5e308, 1.5e308]}, "y_domain": {"shape": "disk", "radius": 5e-324},'
         ' "order": 4}]}', "1+0.5z", "1x1")  # a segment past the float range: refused when parsed
@example("hull-check", '{"generators": [{"kind": "rational", "x_domain": {"shape": "circle",'
         ' "radius": 0.5}, "y_domain": {"shape": "disk", "radius": 0.3}}]}',
         "[1, [1.5e308, 1.5e308]]", None)  # a pairing modulus past the float range
def test_membership_commands_survive_any_spec(tmp_path_factory, command, text, kernel, grid):
    folder = tmp_path_factory.mktemp("spec")
    path = folder / "family.json"
    path.write_text(text)
    argv = [command, "--family", str(path)]
    if command != "border":
        argv += ["--kernel", kernel]
    if command == "hull-check":
        (folder / "kernels.json").write_text(HULL_KERNELS)
        argv += ["--kernels", str(folder / "kernels.json")]
    if grid is not None:
        argv += ["--grid", grid]
    _run(argv)
