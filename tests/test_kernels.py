import random

from aisemiring import _kernels
from aisemiring.algebra import registry
from aisemiring.enumeration import enumerate_semilattices
from aisemiring.satisfaction import _compiled
from aisemiring.terms import content
from aisemiring.verify import random_inequality


def _compile_pair(S, q, u):
    variables = sorted(content(u) | content(q))
    vi = {x: i for i, x in enumerate(variables)}
    from aisemiring.terms import Term

    return _compiled(u, vi), _compiled(Term([q]), vi), len(variables)


class TestScan:
    def test_start_stop_windows(self):
        S = registry("S2")
        rng = random.Random(3)
        q, u = random_inequality(rng)
        cu, cq, nvars = _compile_pair(S, q, u)
        total = S.order ** nvars
        full = _kernels.first_violation(S.add, S.mul, cu, cq, nvars, 0, 0, total)
        if full >= 0:
            # scanning only beyond the first violation finds the next one or none
            rest = _kernels.first_violation(
                S.add, S.mul, cu, cq, nvars, 0, full + 1, total
            )
            assert rest == -1 or rest > full
            before = _kernels.first_violation(
                S.add, S.mul, cu, cq, nvars, 0, 0, full
            )
            assert before == -1


class TestCanonicalForms:
    def test_pack_unpack_round_trip(self):
        S = registry("S4_359")
        form = _kernels.canonical_pair(S.add, S.mul)
        add, mul = _kernels.unpack_pair(form, 4)
        assert _kernels.canonical_pair(add, mul) == form

    def test_canonical_table_is_a_fixed_point(self):
        for add in enumerate_semilattices(4):
            form = _kernels.canonical_table(add)
            assert _kernels.canonical_table(_kernels.unpack_table(form, 4)) == form
