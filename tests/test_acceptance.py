"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic; the stated per-criterion wall-clock budgets
are asserted as hard limits.
"""

import time
from contextlib import contextmanager

from spincactus.celldiag import diagram_of_weight
from spincactus.suites import (
    suite_bijections,
    suite_cactus_relations,
    suite_census,
    suite_commutor,
    suite_crystal_axioms,
    suite_thm2,
    suite_thm51_signs,
    suite_thm52,
)
from spincactus.weights import Weight
from spincactus.youngt import ShortYoungDiagram, branch_syd, f_inverse, f_map


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        elapsed = time.time() - start
        print(f"[acceptance] criterion {number:02d} ({label}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"
    print(f"[acceptance] criterion {number:02d} ({label}): PASS ({elapsed:.2f}s)")


def _assert_report(report):
    failed = [c for c in report["checks"] if not c["pass"]]
    assert not failed, failed


def test_criterion_01_worked_examples():
    with criterion(1, "worked examples", 1.0):
        d = diagram_of_weight(Weight((3, 1, 1, -1)), 7)
        assert d.r == (5, 4, 4, 3) and d.l == (2, 3, 3, 4)
        assert f_map(d).columns() == (4, 3, 3, 2)

        d5 = diagram_of_weight(Weight((6, 4, 2, 2, -2)), 6)
        assert f_map(d5).columns() == (2, 2, 2, 1)

        nu41 = ShortYoungDiagram((4, 1), 4, 4)
        assert f_map(diagram_of_weight(Weight((2, 2, 2, 0)), 4)) == nu41
        assert f_inverse(nu41) == diagram_of_weight(Weight((2, 2, 2, 0)), 4)

        nu_tall = ShortYoungDiagram((4, 1, 1, 1, 1), 6, 4)
        assert f_map(diagram_of_weight(Weight((4, 4, 4, -4)), 6)) == nu_tall
        assert f_inverse(nu_tall) == diagram_of_weight(Weight((4, 4, 4, -4)), 6)


def test_criterion_02_branching_list():
    with criterion(2, "eight-term branching list", 1.0):
        got = [v.rows for v in branch_syd(ShortYoungDiagram((4, 1), 4, 4))]
        assert got == [
            (4, 1),
            (4,),
            (3, 1),
            (3,),
            (2, 1),
            (2,),
            (1, 1),
            (1,),
        ]


def test_criterion_03_bijection_suite():
    with criterion(3, "bijection suite", 30.0):
        report = suite_bijections(chain_n_max=3, chain_big_ns=(3, 4, 5))
        _assert_report(report)
        assert report["params"] == {"kn": [4, 7], "f": [5, 7], "chains": [3, [3, 4, 5]]}


def test_criterion_04_crystal_census():
    with criterion(4, "crystal census", 60.0):
        _assert_report(suite_census(n_values=(2, 3), big_n_max=5))


def test_criterion_05_crystal_axioms():
    with criterion(5, "crystal axioms", 30.0):
        _assert_report(suite_crystal_axioms(n_values=(2, 3), big_n_max=4))


def test_criterion_06_commutor_properties():
    with criterion(6, "commutor properties", 60.0):
        _assert_report(suite_commutor(n_values=(2, 3), big_n_max=4))


def test_criterion_07_cactus_relations():
    with criterion(7, "cactus relations", 120.0):
        _assert_report(suite_cactus_relations(n=2, big_n=4))


def test_criterion_08_tensor_decomposition():
    with criterion(8, "tensor decomposition per component", 60.0):
        _assert_report(suite_thm2(n_values=(2, 3), big_n_max=3))


def test_criterion_09_top_vector_verifier():
    with criterion(9, "top-vector verifier", 60.0):
        _assert_report(suite_thm52(n_values=(2, 3), big_n_max=4))


def test_criterion_10_sign_analysis():
    with criterion(10, "group-element sign analysis", 10.0):
        report = suite_thm51_signs(n_values=(2, 3))
        _assert_report(report)
        assert report["params"] == {"n_values": [2, 3], "even_N": [2, 4], "odd_N": [1, 3]}
        branch_check = [
            c for c in report["checks"] if "parity branches" in c["name"]
        ]
        assert branch_check and branch_check[0]["detail"] == str(
            sorted({(0, False), (0, True), (1, False), (1, True)})
        )
