import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def closed_form_check():
    """A check that closed_form_limit(a, n, g, p, K) agrees with the window
    of f = a*t1^n + g certified from its levels 1..levels - 1 (_certify of
    _diagonal), on every digit the window certifies up to `levels`: the
    norm route, which limit_estimate no longer takes for the unit case in
    two or more variables."""
    from padicres.limits import _certify, _diagonal, window_levels
    from padicres.multipoly import MultiPoly
    from reference import closed_form_limit, embed

    def check(a, n, g, p, K, levels):
        result = closed_form_limit(a, n, g, p, K)
        if isinstance(g, int):
            g = MultiPoly.const(0, g)
        d = g.num_vars + 1
        f = MultiPoly(d, {(n,) + (0,) * (d - 1): a}) + embed(g, d, list(range(2, d + 1)))
        est = _certify(_diagonal(f, p, window_levels(levels), "r"), p, levels, d)
        digits = levels if est.certified_digits is None else min(levels, est.certified_digits)
        assert est.value.eq_mod(result, digits), (a, n, g, p, result, est.value, digits)
        return result

    return check
