"""Tests of the benchmark's own checker, generators and checks.

    python3 -m unittest discover -s benchmark -p 'tests_*.py'

They import nothing from the package: the checker must stay independent of
the code it checks.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import qexact as qx  # noqa: E402
import workloads  # noqa: E402


def q(re_part, im_part=0):
    return qx.scalar(Fraction(re_part), Fraction(im_part))


class ScalarText(unittest.TestCase):
    def test_round_trip(self):
        for text in ("0", "3", "-7/2", "1/2-2/3*i", "-1/2*i", "5*i", "4/3+1*i"):
            self.assertEqual(qx.text(qx.parse(text)), text)

    def test_short_forms(self):
        self.assertEqual(qx.parse("i"), q(0, 1))
        self.assertEqual(qx.parse("-i"), q(0, -1))
        self.assertEqual(qx.parse("2+i"), q(2, 1))

    def test_field_operations(self):
        x, y = q(Fraction(1, 2), 3), q(-2, Fraction(1, 5))
        self.assertEqual(qx.mul(x, qx.inv(x)), qx.ONE)
        self.assertEqual(qx.sub(qx.add(x, y), y), x)
        self.assertEqual(qx.mul(q(0, 1), q(0, 1)), q(-1))


class MatrixKernels(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)

    def test_vandermonde_determinant(self):
        nodes = [q(1), q(2, 1), q(Fraction(-1, 3)), q(0, -2)]
        m = [[qx.ONE, x, qx.mul(x, x), qx.mul(x, qx.mul(x, x))] for x in nodes]
        expected = qx.ONE
        for i in range(4):
            for j in range(i + 1, 4):
                expected = qx.mul(expected, qx.sub(nodes[j], nodes[i]))
        self.assertEqual(qx.determinant(m), expected)

    def test_determinant_is_multiplicative(self):
        for n in (1, 3, 5):
            a = workloads.random_matrix(self.rng, n)
            b = workloads.random_matrix(self.rng, n)
            self.assertEqual(qx.determinant(qx.matmul(a, b)),
                             qx.mul(qx.determinant(a), qx.determinant(b)))

    def test_rank_of_a_product_of_known_ranks(self):
        for r in (0, 1, 2, 4):
            left = [[workloads.random_qi(self.rng) for _ in range(r)] for _ in range(5)]
            right = [[workloads.random_qi(self.rng) for _ in range(6)] for _ in range(r)]
            m = qx.matmul(left, right) if r else [[qx.ZERO] * 6 for _ in range(5)]
            self.assertEqual(qx.rank(m), min(r, qx.rank(left) if r else 0))

    def test_inverse_and_kernel(self):
        a = workloads.random_invertible(self.rng, 4)
        self.assertEqual(qx.matmul(a, qx.inverse(a)), qx.identity(4))
        m = workloads.random_singularized(self.rng, 5)
        kernel = qx.kernel_basis(m)
        self.assertEqual(len(kernel), 5 - qx.rank(m))
        for vec in kernel:
            self.assertTrue(all(qx.is_zero(v) for row in qx.matmul(m, [[x] for x in vec])
                                for v in row))

    def test_singular_determinant_is_zero(self):
        m = workloads.random_matrix(self.rng, 4)
        m[3] = list(m[0])
        self.assertEqual(qx.determinant(m), qx.ZERO)


class TameSymbol(unittest.TestCase):
    def test_known_value(self):
        # f = z - 1/2, g = z - 1/3: f(1/3) / g(1/2) = (-1/6) / (1/6)
        value = qx.tame_symbol(qx.ONE, [q(Fraction(1, 2))],
                               qx.ONE, [q(Fraction(1, 3))])
        self.assertEqual(value, q(-1))

    def test_skew_symmetry_and_outside_roots(self):
        rng = random.Random(3)
        for _ in range(20):
            (fl, fr), (gl, gr) = workloads.disjoint_symbols(rng)
            self.assertEqual(qx.mul(qx.tame_symbol(fl, fr, gl, gr),
                                    qx.tame_symbol(gl, gr, fl, fr)), qx.ONE)
        # roots outside the disk never enter
        self.assertEqual(qx.tame_symbol(q(3), [q(2)], q(5), [q(0, 3)]), qx.ONE)


class Generators(unittest.TestCase):
    def test_rounds_are_seeded_and_stratified(self):
        for workload in workloads.WORKLOADS:
            a = workloads.make_round(workload, 11)
            self.assertEqual(a, workloads.make_round(workload, 11))
            b = workloads.make_round(workload, 12)
            self.assertNotEqual([e["text"] for e in a], [e["text"] for e in b])
            self.assertEqual(sorted(e["kind"] for e in a),
                             sorted(e["kind"] for e in b))

    def test_families_satisfy_ab_cd_and_differ_in_kernels(self):
        rng = random.Random(5)
        ker_d = {"inv": 0, "sing": 0}
        for _ in range(12):
            for family, gen in (("inv", workloads.quad_invertible_d),
                                ("sing", workloads.quad_singular_d)):
                a, b, c, d = gen(rng, 3)
                self.assertEqual(qx.matmul(a, b), qx.matmul(c, d))
                ker_d[family] += qx.rank(d) < 3
        self.assertEqual(ker_d["inv"], 0)
        self.assertGreater(ker_d["sing"], 0)


def _zero_quad_entry():
    request = {"cmd": "joint_torsion_quad",
               "payload": {"dim": 1, "a": ["0"], "b": ["0"], "c": ["0"], "d": ["0"]}}
    return {"kind": "quad", "text": json.dumps(request), "check": {}}


def _zero_quad_response(value="1", tau_bc="2"):
    dims = {"ker_A": 1, "coker_A": 1, "ker_B": 1, "coker_B": 1, "ker_C": 1,
            "coker_C": 1, "ker_D": 1, "coker_D": 1, "ker_B_cap_ker_D": 1,
            "H1": 2, "H0": 1}
    exps = {"lambda": 4, "pairing": 4, "kappa_A": 0, "kappa_B": 0,
            "kappa_C": 0, "kappa_D": 0, "mu": {k: 1 for k in "ABCD"}}
    return json.dumps({"value": value, "report": {
        "homology_dims": dims, "sign_exponents": exps, "tau_AD": "2",
        "tau_BC": tau_bc, "sigma_AD": "1/3", "sigma_BC": "3"}})


class Checks(unittest.TestCase):
    def test_zero_quadruple_dimensions(self):
        zero = [[qx.ZERO]]
        dims = checks.homology_dims(zero, zero, zero, zero)
        self.assertEqual(dims["H1"], 2)
        self.assertEqual(checks.sign_exponents(dims, 1)["lambda"], 4)

    def test_quad_response_checks(self):
        entry = _zero_quad_entry()
        self.assertEqual(checks.check_response(entry, _zero_quad_response()), [])
        self.assertTrue(checks.check_response(entry, _zero_quad_response(value="-1")))
        self.assertTrue(checks.check_response(entry, _zero_quad_response(tau_bc="4")))

    def test_torsion_is_the_determinant(self):
        m = [[q(1), q(2)], [q(3), q(0, 1)]]
        entry = workloads.torsion_request(m)
        good = json.dumps({"value": qx.text(qx.determinant(m)),
                           "report": {"spaces": [2, 2]}})
        self.assertEqual(checks.check_response(entry, good), [])
        bad = json.dumps({"value": "1", "report": {"spaces": [2, 2]}})
        self.assertTrue(checks.check_response(entry, bad))

    def test_numeric_checks(self):
        self.assertEqual(checks.parse_complex("1-2.5e-05*i"), complex(1, -2.5e-05))
        self.assertEqual(checks.parse_complex("-0.5+3*i"), complex(-0.5, 3))
        f, g = {1: (1.0, 0.0)}, {-1: (1.0, 0.0)}
        entries = [workloads.numeric_request(0, f, g, n) for n in (64, 128)]
        exact = checks.closed_form(json.loads(entries[0]["text"])["payload"])
        # sum_k k f_{-k} g_k = (-1) f_1 g_{-1} = -1
        self.assertAlmostEqual(exact, math.exp(-1))

        def text(z):
            value = f"{z.real:.15g}{'+' if z.imag >= 0 else '-'}{abs(z.imag):.15g}*i"
            return json.dumps({"value": value, "report": {}})
        ok = [text(exact + 1e-6), text(exact + 1e-12)]
        self.assertEqual(checks.check_round(entries, ok), [])
        grows = [text(exact + 1e-12), text(exact + 1e-6)]
        self.assertEqual(len(checks.check_round(entries, grows)), 1)
        far = [text(exact), text(exact + 1e-3)]
        self.assertEqual(len(checks.check_round(entries, far)), 2)

    def test_verify_summary(self):
        entry = workloads.verify_request("steinberg", 9, 3)
        good = {"suite": "steinberg", "seed": 9, "count": 3, "passes": 3,
                "failures": [], "properties": {}}
        self.assertEqual(checks.check_response(entry, json.dumps(good)), [])
        self.assertTrue(checks.check_response(entry, json.dumps({**good, "passes": 2})))


if __name__ == "__main__":
    unittest.main()
