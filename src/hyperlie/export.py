"""Deterministic JSON and LaTeX exports of the constructed objects.

Given the same inputs the output is byte-identical across runs: every
collection is emitted in a fixed order and polynomials are serialized in
canonical term order.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .exactpoly import Poly, PolyMatrix
from .genus_fields import build_Tcal, catalog, table_relations
from .lambda_space import CurveModel, M_PAIRS, build_M, build_T, discriminant_R
from .param_map import jacobi_map, w_name

_GREEK = {"alpha": r"\alpha", "beta": r"\beta", "gamma1": r"\gamma_{1}",
          "gamma2": r"\gamma_{2}"}


def latex_var(name: str) -> str:
    if name in _GREEK:
        return _GREEK[name]
    if name.startswith("l") and name[1:].isdigit():
        return rf"\lambda_{{{name[1:]}}}"
    m = re.fullmatch(r"([A-Za-z]+)(\d+)_(\d+)", name)
    if m:
        return f"{m.group(1)}_{{{m.group(2)},{m.group(3)}}}"
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", name)
    if m:
        return f"{m.group(1)}_{{{m.group(2)}}}"
    return name


def latex_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for m, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(m):
            if e:
                v = latex_var(p.ring.names[i])
                factors.append(v if e == 1 else f"{v}^{{{e}}}")
        mono = " ".join(factors)
        if isinstance(c, Fraction):
            body = rf"\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
            neg = c < 0
        else:
            body = str(abs(c))
            neg = c < 0
        if mono:
            body = mono if body == "1" else f"{body} {mono}"
        chunks.append(("-" if neg else "+", body))
    sign, body = chunks[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _field_latex_name(name: str) -> str:
    return rf"\mathcal{{L}}_{{{name[1:]}}}"


def _matrix_latex(mat: PolyMatrix) -> str:
    lines = [r"\begin{pmatrix}"]
    for row in mat.rows:
        lines.append(" & ".join(latex_poly(p) for p in row) + r" \\")
    lines.append(r"\end{pmatrix}")
    return "\n".join(lines)


def _matrix_json(mat: PolyMatrix):
    return [[p.to_json_obj() for p in row] for row in mat.rows]


def export(what: str, genus: int, fmt: str) -> str:
    """Render one object family; returns the document as a string."""
    if genus not in (1, 2, 3):
        raise ValueError("genus must be 1, 2 or 3")
    if fmt not in ("json", "latex"):
        raise ValueError("format must be 'json' or 'latex'")
    if what == "map":
        return _export_map(genus, fmt)
    if what == "fields":
        return _export_fields(genus, fmt)
    if what == "brackets":
        return _export_brackets(genus, fmt)
    if what == "matrices":
        return _export_matrices(genus, fmt)
    raise ValueError(f"unknown export selector {what!r}")


def _export_map(genus: int, fmt: str) -> str:
    jm = jacobi_map(genus)
    comps = [(f"l{s}", jm.lambda_exprs[s]) for s in sorted(jm.lambda_exprs)]
    if fmt == "json":
        doc = {
            "genus": genus,
            "map": [{"var": v, "poly": p.to_json_obj()} for v, p in comps],
            "w": [
                {"var": w_name(genus, k, l), "poly": jm.w_exprs[(k, l)].to_json_obj()}
                for (k, l) in sorted(jm.w_exprs)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [r"\begin{align*}"]
    for v, p in comps:
        lines.append(rf"{latex_var(v)} &= {latex_poly(p)}, \\")
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def _export_fields(genus: int, fmt: str) -> str:
    cat = catalog(genus)
    if fmt == "json":
        doc = {
            "genus": genus,
            "fields": [
                {
                    "name": n,
                    "weight": cat.fields[n].weight,
                    "action": [
                        {"var": v.name, "poly": cat.fields[n].on(v.name).to_json_obj()}
                        for v in cat.ring.vars
                        if v.name in cat.fields[n].action
                    ],
                }
                for n in cat.names
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [r"\begin{align*}"]
    for n in cat.names:
        d = cat.fields[n]
        parts = []
        for v in cat.ring.vars:
            if v.name not in d.action:
                continue
            coeff = d.on(v.name)
            body = latex_poly(coeff)
            if len(coeff.num) > 1 or body.startswith("-"):
                body = rf"\left({body}\right)"
            parts.append(rf"{body}\,\partial_{{{latex_var(v.name)}}}")
        lines.append(rf"{_field_latex_name(n)} &= " + " + ".join(parts) + r", \\")
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def _export_brackets(genus: int, fmt: str) -> str:
    rows = [
        (rel.left.name, rel.right.name, [(Z.name, c) for c, Z in rel.expansion])
        for rel in table_relations(catalog(genus))
    ]
    if fmt == "json":
        doc = {
            "genus": genus,
            "brackets": [
                {
                    "left": l,
                    "right": r,
                    "terms": [
                        {"field": f, "coeff": p.to_json_obj()} for f, p in expansion
                    ],
                }
                for l, r, expansion in rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [r"\begin{align*}"]
    for l, r, expansion in rows:
        terms = [
            rf"\left({latex_poly(p)}\right) {_field_latex_name(f)}"
            for f, p in expansion
        ]
        rhs = " + ".join(terms) if terms else "0"
        lines.append(
            rf"[{_field_latex_name(l)}, {_field_latex_name(r)}] &= {rhs}, \\"
        )
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def _export_matrices(genus: int, fmt: str) -> str:
    model = CurveModel(genus)
    T = build_T(model)
    R = discriminant_R(model)
    Tcal = build_Tcal(catalog(genus, params="zero"))
    blocks = {"T": T, "Tcal": Tcal}
    if genus == 3:
        blocks["M"] = build_M(model)
    if fmt == "json":
        doc = {
            "genus": genus,
            "R": R.to_json_obj(),
            "matrices": {k: _matrix_json(v) for k, v in sorted(blocks.items())},
        }
        if genus == 3:
            doc["bracket_pairs"] = [list(p) for p in M_PAIRS]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = []
    for k in sorted(blocks):
        lines.append(rf"% {k}")
        lines.append(_matrix_latex(blocks[k]))
    lines.append(r"% R")
    lines.append(rf"R = {latex_poly(R)}")
    return "\n".join(lines) + "\n"
