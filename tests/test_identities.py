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

The Leibniz identity itself checks the answers' preimages, with no oracle
work: on the nice (Q[a, b]), pid-3var and nice-able (slice) answers, the
families that carry them, D^i of each preimage of I_i is a kernel element
r, a rational multiple of its generator, and for every preimage q of I_j
with D^j q = s, D^(i+j)(p*q) is C(i+j, i)*r*s.
"""

import random
from math import comb

from plinth.cli import parse_problem
from plinth.derivation import apply, iterate
from plinth.polyring import PlinthError, divides, normalize_unit

from test_formula_oracle import (
    BOUNDS,
    CAP,
    nice_problem,
    niceable_problem,
    pid3_problem,
    quasi_problem,
)

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


def test_products_of_preimages_follow_leibniz():
    checks = 0
    for family in (nice_problem, pid3_problem, niceable_problem):
        for seed in range(40):
            text = family(random.Random(seed))[0]
            spec = parse_problem(text)
            D = spec.derivation()
            try:
                answers = {j: spec.analysis.image_ideal(j, BOUNDS, CAP) for j in (1, 2, 3)}
            except PlinthError:  # the 8 reducible nice-able seeds are refused
                continue
            pairs = {}  # j: [(p, D^j p)] over the preimages p of I_j
            for j, answer in answers.items():
                pairs[j] = [(p, iterate(D, p, j)) for p in answer.preimages]
                for g, (_, r) in zip(answer.generators, pairs[j], strict=True):
                    assert not r.is_zero() and apply(D, r).is_zero(), (text, j, g)
                    assert normalize_unit(r) == normalize_unit(g), (text, j, g)
            for i, j in ((1, 1), (1, 2), (1, 3), (2, 2)):
                for p, r in pairs[i]:
                    for q, s in pairs[j]:
                        assert iterate(D, p * q, i + j) == comb(i + j, i) * r * s, (text, i, j)
                        checks += 1
    # 40 nice and 40 pid-3var seeds with 2, 3 and 4 preimages at j = 1, 2, 3
    # (27 products each), and 32 nice-able seeds with one slice preimage
    # each (4 products each): the identity was checked, not skipped
    assert checks == 80 * 27 + 32 * 4, checks
