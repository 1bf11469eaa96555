"""Family spec files and command-line series expressions.

Spec files are JSON:

    {"generators": [{"kind": "pencil", "exponents": [1],
                     "domains": [{"shape": "disk", "radius": 1.0}]}],
     "dilation_slot": false}

Domain shapes: ``disk {radius}``, ``circle {radius}``, ``segment {from, to}``.
Generator kinds: ``pencil {exponents, domains}``, ``rational {x_domain,
y_domain, order?}``, ``fixed {coeffs, tail?}``.  Complex numbers are written
as a plain number (real) or a two-element ``[re, im]`` list; ``tail`` is
``{"M": m, "rho": r}``, the string ``"exact"``, or null for no tail data.

Command-line series expressions accept polynomial literals such as
``1+0.5z-0.25z^2`` (complex coefficients in parentheses, ``(0.3+0.4j)z``),
the rational kernel form ``rat(x, y)``, and JSON coefficient lists like
``[1, -2]``.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Optional, Union

import numpy as np

from .family import Circle, Disk, FamilySpec, Fixed, Pencil, Rational, Segment
from .series import DEFAULT_ORDER, Tail, TruncSeries, from_rational

__all__ = [
    "SpecFileError",
    "parse_family",
    "load_family",
    "family_to_dict",
    "tail_to_json",
    "dump_family",
    "parse_series",
]


class SpecFileError(ValueError):
    """Malformed spec file; carries a field path or line diagnostic."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _reject_constant(name: str):
    raise SpecFileError(f"non-finite number {name!r} is not allowed")


def _expect_dict(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecFileError(f"expected an object, got {type(obj).__name__}", path)
    return obj


def _expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise SpecFileError(f"expected a list, got {type(obj).__name__}", path)
    return obj


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SpecFileError(f"missing required field {key!r}", path)
    return obj[key]


def _real(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecFileError(f"expected a number, got {type(v).__name__}", path)
    x = float(v)
    if not math.isfinite(x):
        raise SpecFileError("number must be finite", path)
    return x


def _complex(v: Any, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_real(v, path))
    if isinstance(v, list) and len(v) == 2:
        return complex(_real(v[0], path + "[0]"), _real(v[1], path + "[1]"))
    raise SpecFileError("expected a number or a [re, im] pair", path)


def _domain(obj: Any, path: str):
    d = _expect_dict(obj, path)
    shape = _get(d, "shape", path)
    try:
        if shape == "disk":
            return Disk(_real(_get(d, "radius", path), path + ".radius"))
        if shape == "circle":
            return Circle(_real(_get(d, "radius", path), path + ".radius"))
        if shape == "segment":
            return Segment(
                _complex(_get(d, "from", path), path + ".from"),
                _complex(_get(d, "to", path), path + ".to"),
            )
    except SpecFileError:
        raise
    except ValueError as exc:
        raise SpecFileError(str(exc), path) from exc
    raise SpecFileError(f"unknown domain shape {shape!r}", path + ".shape")


def _tail(obj: Any, path: str) -> Optional[Union[Tail, tuple]]:
    if obj is None:
        return None
    if obj == "exact":
        return (0.0, math.inf)
    d = _expect_dict(obj, path)
    return (_real(_get(d, "M", path), path + ".M"), _real(_get(d, "rho", path), path + ".rho"))


def _generator(obj: Any, path: str):
    d = _expect_dict(obj, path)
    kind = _get(d, "kind", path)
    try:
        if kind == "pencil":
            exps = _expect_list(_get(d, "exponents", path), path + ".exponents")
            for i, e in enumerate(exps):
                if isinstance(e, bool) or not isinstance(e, int):
                    raise SpecFileError("exponent must be an integer", f"{path}.exponents[{i}]")
            doms = _expect_list(_get(d, "domains", path), path + ".domains")
            return Pencil(
                tuple(exps),
                tuple(_domain(x, f"{path}.domains[{i}]") for i, x in enumerate(doms)),
            )
        if kind == "rational":
            order = d.get("order", DEFAULT_ORDER)
            if isinstance(order, bool) or not isinstance(order, int) or order < 1:
                raise SpecFileError("order must be a positive integer", path + ".order")
            return Rational(
                _domain(_get(d, "x_domain", path), path + ".x_domain"),
                _domain(_get(d, "y_domain", path), path + ".y_domain"),
                order=order,
            )
        if kind == "fixed":
            coeffs = _expect_list(_get(d, "coeffs", path), path + ".coeffs")
            if not coeffs:
                raise SpecFileError("coefficient list must be nonempty", path + ".coeffs")
            cs = [_complex(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)]
            tail = _tail(d.get("tail", "exact"), path + ".tail")
            series = TruncSeries(np.asarray(cs, dtype=complex), tail=tail)
            return Fixed(series)
    except SpecFileError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecFileError(str(exc), path) from exc
    raise SpecFileError(f"unknown generator kind {kind!r}", path + ".kind")


def parse_family(text: str, source: str = "<spec>") -> FamilySpec:
    """Parse a family spec document, raising SpecFileError with diagnostics."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except SpecFileError:
        raise
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    root = _expect_dict(data, source)
    gens = _expect_list(_get(root, "generators", source), source + ".generators")
    slot = root.get("dilation_slot", False)
    if not isinstance(slot, bool):
        raise SpecFileError("dilation_slot must be a boolean", source + ".dilation_slot")
    parsed = tuple(
        _generator(g, f"{source}.generators[{i}]") for i, g in enumerate(gens)
    )
    try:
        return FamilySpec(parsed, dilation_slot=slot)
    except ValueError as exc:
        raise SpecFileError(str(exc), source + ".generators") from exc


def load_family(path) -> FamilySpec:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file: {exc}") from exc
    return parse_family(text, source=str(path))


def _num_out(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _domain_to_dict(d) -> dict:
    if isinstance(d, Disk):
        return {"shape": "disk", "radius": d.radius}
    if isinstance(d, Circle):
        return {"shape": "circle", "radius": d.radius}
    return {"shape": "segment", "from": _num_out(d.start), "to": _num_out(d.end)}


def tail_to_json(s: TruncSeries) -> Any:
    """The tail of ``s`` as spec files write it: ``"exact"``, null, or ``{M, rho}``."""
    if s.is_exact:
        return "exact"
    if s.tail is None:
        return None
    return {"M": s.tail.M, "rho": s.tail.rho}


def family_to_dict(V: FamilySpec) -> dict:
    gens = []
    for gen in V.generators:
        if isinstance(gen, Pencil):
            gens.append(
                {
                    "kind": "pencil",
                    "exponents": list(gen.exponents),
                    "domains": [_domain_to_dict(d) for d in gen.domains],
                }
            )
        elif isinstance(gen, Rational):
            gens.append(
                {
                    "kind": "rational",
                    "x_domain": _domain_to_dict(gen.x_domain),
                    "y_domain": _domain_to_dict(gen.y_domain),
                    "order": gen.order,
                }
            )
        elif isinstance(gen, Fixed):
            gens.append(
                {
                    "kind": "fixed",
                    "coeffs": [_num_out(complex(c)) for c in gen.series.coeffs],
                    "tail": tail_to_json(gen.series),
                }
            )
        else:
            raise ValueError(f"cannot serialize generator of type {type(gen).__name__}")
    return {"generators": gens, "dilation_slot": V.dilation_slot}


def dump_family(V: FamilySpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(family_to_dict(V), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- series expressions ----------------------------------------------------------

_TERM_RE = re.compile(r"^([+-]?)(.*?)(\*?)z(?:\^(\d+))?$")


def _split_terms(s: str) -> list[str]:
    terms: list[str] = []
    cur = ""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecFileError(f"unbalanced parentheses in {s!r}")
        if ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "eE(+-*^":
            terms.append(cur)
            cur = ch
            continue
        cur += ch
    if depth != 0:
        raise SpecFileError(f"unbalanced parentheses in {s!r}")
    terms.append(cur)
    return [t for t in terms if t not in ("", "+")]


def _coef(text: str, original: str) -> complex:
    if text in ("", "+"):
        return 1.0 + 0.0j
    if text == "-":
        return -1.0 + 0.0j
    try:
        c = complex(text)
    except ValueError as exc:
        raise SpecFileError(f"bad coefficient {text!r} in series {original!r}") from exc
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise SpecFileError(f"coefficient {text!r} must be finite in series {original!r}")
    return c


def _split_args(body: str, original: str) -> list[str]:
    args: list[str] = []
    cur = ""
    depth = 0
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            args.append(cur)
            cur = ""
            continue
        cur += ch
    args.append(cur)
    if depth != 0:
        raise SpecFileError(f"unbalanced parentheses in {original!r}")
    return args


def parse_series(expr: str, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Parse a command-line series expression.

    Accepts polynomial literals (``1+0.5z-0.25z^2``), the rational kernel
    form ``rat(x, y)``, and JSON coefficient lists (``[1, -2]``); degrees
    are capped at the truncation order.
    """
    original = expr
    expr = expr.strip()
    if not expr:
        raise SpecFileError("empty series expression")
    if expr.startswith("["):
        try:
            data = json.loads(expr, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"bad coefficient list {original!r}: {exc.msg}") from exc
        if not isinstance(data, list) or not data:
            raise SpecFileError(f"coefficient list must be a nonempty list: {original!r}")
        cs = [_complex(c, f"coeffs[{i}]") for i, c in enumerate(data)]
        return TruncSeries.polynomial(cs)
    if expr.startswith("rat(") and expr.endswith(")"):
        args = _split_args(expr[4:-1], original)
        if len(args) != 2:
            raise SpecFileError(f"rat(x, y) takes two arguments: {original!r}")
        x = _coef(args[0].strip().replace(" ", ""), original)
        y = _coef(args[1].strip().replace(" ", ""), original)
        try:
            return from_rational(x, y, order=order)
        except ValueError as exc:
            raise SpecFileError(f"{exc} in {original!r}") from exc
    compact = expr.replace(" ", "").replace("**", "^")
    coeffs: dict[int, complex] = {}
    for term in _split_terms(compact):
        m = _TERM_RE.match(term)
        if m and ("z" in term) and not term.endswith(")"):
            sign = -1.0 if m.group(1) == "-" else 1.0
            k = int(m.group(4)) if m.group(4) else 1
            if k > order:
                raise SpecFileError(
                    f"degree {k} exceeds the truncation order {order}: {original!r}"
                )
            body = m.group(2)
            if m.group(3) and not body:
                raise SpecFileError(f"dangling '*' in series {original!r}")
            if body.startswith("(") and body.endswith(")"):
                body = body[1:-1]
            c = sign * _coef(body, original)
        else:
            c = _coef(term, original)
            k = 0
        coeffs[k] = coeffs.get(k, 0.0) + c
    deg = max(coeffs)
    out = np.zeros(deg + 1, dtype=complex)
    for k, c in coeffs.items():
        out[k] = c
    try:
        return TruncSeries.polynomial(out)
    except ValueError as exc:
        raise SpecFileError(f"{exc}: {original!r}") from exc
