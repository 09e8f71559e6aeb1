"""Acceptance suite: eight exact end-to-end criteria.

Each test prints one line, "ACCEPTANCE n: PASS ..." or "ACCEPTANCE n: FAIL ...",
and enforces its runtime budget. All comparisons are exact (Fraction
arithmetic); there are no tolerances.
"""

import random
import time
from fractions import Fraction
from math import factorial

from plinth.derivation import Derivation, apply, classify, iterate, localized_fpf
from plinth.grading import WeightedDegree, prime_after_elimination, top_degree_ideal
from plinth.imageideals import image_ideal, min_exponent, nice3var_reduce
from plinth.oracle import verify_image_ideal
from plinth.polyring import PolyRing

import test_properties as props
from test_oracle import ideal_membership_bounded

SEED = 20260823


class _Criterion:
    """Context manager printing exactly one PASS/FAIL line per criterion."""

    def __init__(self, number, budget_seconds, note):
        self.number = number
        self.budget = budget_seconds
        self.note = note

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number}: {verdict} "
            f"({self.note}; {elapsed:.2f}s of {self.budget}s budget)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded {self.budget}s"
            )
        return False


def test_acceptance_1_nice_powers():
    with _Criterion(1, 60, "nice instance: (a,b)^j generators, both directions"):
        ring = PolyRing(("a", "b"), ("X", "Y"))
        D = Derivation(ring, [ring.poly("a"), ring.poly("b")])
        for j in (1, 2, 3):
            res = image_ideal(D, j)
            expected = [
                ring.poly("a") ** i * ring.poly("b") ** (j - i)
                for i in range(j, -1, -1)
            ]
            assert res.generators == expected
            assert len(res.generators) == j + 1
            rep = verify_image_ideal(
                D, j, res.generators, 4, 4, entry_cap=5_000_000
            )
            assert rep.forward == "PASS"
            assert rep.backward == "PASS"
            assert rep.overall == "PASS"


def test_acceptance_2_parametric_plinth():
    with _Criterion(2, 10, "plinth (1-t), localized checks, wrong candidate fails"):
        ring = PolyRing(("t",), ("X1", "X2"))
        D = Derivation(ring, [ring.poly("-t^2 + t"), ring.poly("-t*X1 - t + 1")])
        factors = [(ring.poly("t"), 1), (ring.poly("-t + 1"), 1)]
        res = image_ideal(D, 1, factored_b=factors)
        assert res.generators == [ring.poly("-t + 1")]
        assert localized_fpf(D, classify(D), ring.poly("t")) is True
        assert localized_fpf(D, classify(D), ring.poly("-t + 1")) is False
        h = ring.poly("1/2*X1^2 + (-t + 1)*X2")
        assert apply(D, h) == ring.poly("-t + 1") ** 2
        wrong = ring.poly("-t^2 + t")
        rep = verify_image_ideal(D, 1, [wrong], 3, 2)
        assert rep.overall == "FAIL"
        status, witness = ideal_membership_bounded(
            [wrong], ring.poly("-t + 1") ** 2, (3, 2)
        )
        assert status == "no"
        assert not witness.is_zero()


def test_acceptance_3_exponent_law():
    with _Criterion(3, 1, "min_exponent matches enumeration and j - floor(j/d)"):
        for d in range(1, 11):
            for j in range(1, 51):
                brute = min(
                    i1 + (d - 1) * i2
                    for i1 in range(j + 1)
                    for i2 in range(j + 1)
                    if i1 + d * i2 == j
                )
                got = min_exponent(j, d)
                assert got == brute
                assert got == j - j // d


def test_acceptance_4_three_var_non_principal():
    with _Criterion(4, 120, "3-var plinth verified, bounded non-principality"):
        ring = PolyRing(("a", "b"), ("X", "Y", "Z"))
        D = Derivation(
            ring, [ring.poly("a"), ring.poly("b"), ring.poly("b*X - a*Y")]
        )
        gens = [ring.poly("a"), ring.poly("b"), ring.poly("b*X - a*Y")]
        rep = verify_image_ideal(D, 1, gens, 2, 2, entry_cap=500_000)
        assert rep.overall == "PASS"
        for g in gens:
            others = [h for h in gens if h is not g]
            statuses = [
                ideal_membership_bounded([g], h, (3, 3))[0] for h in others
            ]
            assert "no" in statuses  # g alone never generates both others


def test_acceptance_5_pid_three_var():
    with _Criterion(5, 120, "reduction U=X, (t,X)^j with j+1 generators"):
        ring = PolyRing(("t",), ("X", "Y", "Z"))
        D = Derivation(ring, [ring.zero(), ring.poly("t"), ring.poly("X")])
        red = nice3var_reduce(D, classify(D))
        assert red.coords[0] == ring.gen("X")
        for j in (1, 2):
            res = image_ideal(D, j)
            expected = [
                ring.poly("t") ** i * ring.gen("X") ** (j - i)
                for i in range(j, -1, -1)
            ]
            assert res.generators == expected
            assert len(res.generators) == j + 1
            rep = verify_image_ideal(
                D, j, res.generators, 2, 2, entry_cap=500_000
            )
            assert rep.overall == "PASS"


def test_acceptance_6_slice_law():
    with _Criterion(6, 10, "1 = D^n(s^n/n!) for n = 1..4 on both slice instances"):
        r1 = PolyRing((), ("X",))
        d1 = Derivation(r1, [r1.one()])
        rt = PolyRing(("t",), ("X1", "X2"))
        d2 = Derivation(rt, [rt.poly("t"), rt.poly("-t + 1")])
        for D in (d1, d2):
            first = image_ideal(D, 1)
            assert first.theorem == "slice"
            s, = first.preimages
            assert apply(D, s) == D.ring.one()
            for n in range(1, 5):
                preimage = Fraction(1, factorial(n)) * s**n
                assert iterate(D, preimage, n) == D.ring.one()
                res = image_ideal(D, n)
                assert res.generators == [D.ring.one()]


def test_acceptance_7_property_suites():
    with _Criterion(7, 120, "seeded property suites, 200 cases each"):
        rng = random.Random(SEED)
        props.check_leibniz(rng, cases=200)
        props.check_linearity(rng, cases=200)
        props.check_prule(rng, cases=200)
        props.check_tilde_multiplicative(rng, cases=200)
        props.check_gcd_divides(rng, cases=200)
        props.check_bezout(rng, cases=200)
        props.check_oracle_monotone(rng, cases=200)


def test_acceptance_8_top_degree_fixture():
    with _Criterion(8, 5, "top-degree ideal (S1-X, S2-Y, u) certified prime"):
        ext = PolyRing(("a", "b"), ("X", "Y", "S1", "S2", "Z"))
        wd = WeightedDegree(ext, {"X": 1, "Y": 1, "S1": 1, "S2": 1, "Z": 0})
        u = ext.poly("b*X - a*Y")
        gens, residual = top_degree_ideal(wd, [("X", "S1"), ("Y", "S2")], "Z", u)
        assert gens == [ext.poly("S1 - X"), ext.poly("S2 - Y"), -u]
        assert prime_after_elimination(residual) is True
        ring = PolyRing(("a", "b"), ("X", "Y"))
        D = Derivation(ring, [ring.poly("a"), ring.poly("b")])
        cert = image_ideal(D, 1).certificate
        assert cert.top_degree_generators == tuple(gens)
        assert "verified" in cert.top_degree_hypotheses
        assert cert.primality is True
