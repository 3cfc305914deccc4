"""A reader of MultiPoly's canonical text format, the tests' reference.

`parse(text, variables)` inverts `str(poly)`: terms joined by " + ", each
an optional integer coefficient and factors `var` or `var^e` joined by
"*", and "0" for the zero polynomial.
"""

import re

from ntcodes.exactalg import MultiPoly

_FACTOR = re.compile(r"([A-Za-z]\w*)(?:\^(\d+))?\Z")
_COEFF = re.compile(r"-?\d+\Z")


def parse(text, variables):
    variables = tuple(variables)
    pos = {v: i for i, v in enumerate(variables)}
    text = text.strip()
    terms = {}
    if text == "0":
        return MultiPoly(variables)
    for chunk in text.split(" + "):
        coeff = 1
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            if _COEFF.match(factor):
                coeff *= int(factor)
                continue
            m = _FACTOR.match(factor)
            if not m or m.group(1) not in pos:
                raise ValueError(f"cannot parse polynomial factor {factor!r}")
            exps[pos[m.group(1)]] += int(m.group(2) or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return MultiPoly(variables, terms)
