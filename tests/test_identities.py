"""Exact identities of the image ideals as a test oracle, with no bound.

For a locally nilpotent D over a ring containing Q the image ideals form a
filtration: A = I_0 ⊇ I_1 ⊇ I_2 ⊇ ... and I_i * I_j ⊆ I_{i+j}.  (If
D^i p = r and D^j q = s with D r = D s = 0, Leibniz gives
D^(i+j)(p*q) = C(i+j, i) * r * s.)  For principal answers (g_j) both are
exact divisions: g_j divides g_(j+1), and g_(i+j) divides g_i * g_j.

The problems are seeds 0-39 of three seeded families of test_formula_oracle:
strictly quasi-nice and nice-able over Q[t], and nice 3-variable over Q[t].
A problem whose answer at some j is not one formula generator adds no
checks: the 8 reducible nice-able seeds are refused, and every pid-3var
answer has several generators.
"""

import random

from plinth.cli import parse_problem
from plinth.polyring import PlinthError, divides

from test_formula_oracle import BOUNDS, CAP, niceable_problem, pid3_problem, quasi_problem

TOP = 5  # the answers I_1 .. I_TOP


def principal_answers(text):
    """[g_0 = 1, g_1, ..., g_TOP] with I_j = (g_j), or None if an answer is
    refused or is not one formula generator."""
    spec = parse_problem(text)
    gens = [spec.derivation().ring.one()]
    for j in range(1, TOP + 1):
        try:
            answer = spec.analysis.image_ideal(j, BOUNDS, CAP)
        except PlinthError:
            return None
        if answer.theorem == "oracle-only" or len(answer.generators) != 1:
            return None
        gens.append(answer.generators[0])
    return gens


def test_image_ideals_form_a_filtration():
    checks = 0
    for family in (quasi_problem, niceable_problem, pid3_problem):
        for seed in range(40):
            text = family(random.Random(seed))[0]
            g = principal_answers(text)
            if g is None:
                continue
            for j in range(1, TOP):
                assert divides(g[j], g[j + 1]), (text, "I_%d in I_%d" % (j + 1, j), g)
                checks += 1
            for i in range(1, TOP):
                for j in range(i, TOP + 1 - i):
                    assert divides(g[i + j], g[i] * g[j]), (text, "I_%d I_%d" % (i, j), g)
                    checks += 1
    # 40 quasi and 32 nice-able seeds answer, 10 checks each: the identities
    # were checked, not skipped
    assert checks >= 720, checks
