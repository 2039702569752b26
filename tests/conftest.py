import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def closed_form_check():
    """A check that closed_form_limit(a, n, g, p, K) agrees with the window
    limit_estimate of f = a*t1^n + g at `levels` levels, on every digit the
    window certifies up to `levels`."""
    from padicres.limits import closed_form_limit, limit_estimate
    from padicres.multipoly import MultiPoly

    def check(a, n, g, p, K, levels):
        result = closed_form_limit(a, n, g, p, K)
        if isinstance(g, int):
            g = MultiPoly.const(0, g)
        d = g.num_vars + 1
        f = MultiPoly(d, {(n,) + (0,) * (d - 1): a}) + g.embed(d, list(range(2, d + 1)))
        est = limit_estimate(f, p, levels, mask="r")
        digits = levels if est.certified_digits is None else min(levels, est.certified_digits)
        assert est.value.eq_mod(result, digits), (a, n, g, p, result, est.value, digits)
        return result

    return check
