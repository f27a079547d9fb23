import pytest

from prismalab import cyclo_suite
from prismalab.cyclo_suite import (
    CYCLO_DEGREE_BUDGET, CycloInstance,
    h2_instance_module, h2_torsion_report, ideal_j_mingens, ker_phi_minus_d,
    sharpness_report,
)
from prismalab.errors import BoundaryContamination, InputError
from prismalab.linalg_residue import howell_form, kernel_solve, spans_equal
from prismalab.phi_modules import boundary_structure_check, u_torsion
from prismalab.series_rings import binomial_power_minus_one


def test_instance_factorization_and_degrees():
    for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        inst = CycloInstance(p, n)
        assert inst.e == p ** (n - 1) * (p - 1)
        assert len(inst.d.int_coeffs) - 1 == inst.e
        # d = u^e mod p
        assert all(c % p == 0 for c in list(inst.d.int_coeffs)[:-1])


def test_binomial_identity_mod_pn():
    # Pascal's rule gives (u+1)^k - 1
    row = [1]
    for k in range(10):
        assert binomial_power_minus_one(k) == [0] + row[1:]
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    # (u+1)^{p^n} = (u^p+1)^{p^{n-1}} mod p^n
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        lhs = binomial_power_minus_one(p ** n)
        inner = binomial_power_minus_one(p ** (n - 1))
        rhs = [0] * (p ** n + 1)
        for i, c in enumerate(inner):
            rhs[p * i] += c
        q = p ** n
        assert all((a - b) % q == 0 for a, b in zip(lhs, rhs))


def test_kernel_frozen_small_instances():
    # mod p, level 1: the kernel is the line through u
    for p in (2, 3, 5):
        gens = ker_phi_minus_d(CycloInstance(p, 1), 1)
        assert len(gens) == 1
        assert gens[0][1] % p != 0
        assert all(c % p == 0 for i, c in enumerate(gens[0]) if i != 1)


def test_kernel_frozen_2_2():
    inst = CycloInstance(2, 2)
    gens = ker_phi_minus_d(inst, 2)
    g0 = [0, 2, 1] + [0] * (inst.B - 2)
    expect = howell_form([g0], 2, 2)
    assert spans_equal(gens, expect, 2, 2)


def test_kernel_generator_exact_closure():
    # phi(g0) - d g0 = 0 identically mod p^n (not only up to degree B)
    for p, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        inst = CycloInstance(p, n)
        g0 = inst.g0
        d = list(inst.d.int_coeffs)
        phi_g = [0] * (p * (len(g0) - 1) + 1)
        for i, c in enumerate(g0):
            phi_g[p * i] += c
        prod = [0] * (len(d) + len(g0) - 1)
        for i, a in enumerate(d):
            for j, b in enumerate(g0):
                prod[i + j] += a * b
        q = p ** n
        width = max(len(phi_g), len(prod))
        phi_g += [0] * (width - len(phi_g))
        prod += [0] * (width - len(prod))
        assert all((a - b) % q == 0 for a, b in zip(phi_g, prod))


def test_kernel_level_bound_enforced():
    with pytest.raises(InputError):
        ker_phi_minus_d(CycloInstance(2, 2), 3)


def test_boundary_contamination_when_B_too_small():
    with pytest.raises(BoundaryContamination):
        ker_phi_minus_d(CycloInstance(2, 1, B=1), 1)


def test_h2_reports():
    rep = h2_torsion_report(CycloInstance(2, 1))
    assert rep["alpha"] == 1 and rep["sharp"]
    M = h2_instance_module(CycloInstance(2, 1))
    assert boundary_structure_check(M, e=1, i=2)["passed"]
    rep = h2_torsion_report(CycloInstance(3, 1))
    assert rep["alpha"] == 1 and rep["sharp"]
    rep = h2_torsion_report(CycloInstance(2, 2))
    assert rep["alpha"] == 2 and rep["sharp"]
    # u^b kills the generator, so the whole module is u-torsion
    M = h2_instance_module(CycloInstance(2, 2))
    assert u_torsion(M).length() == M.length()


def test_h2_module_lengths():
    # S/(g0, p^n) has Z_p-length n * p^{n-1}
    for p, n in [(2, 1), (3, 1), (2, 2)]:
        M = h2_instance_module(CycloInstance(p, n))
        assert M.length() == n * p ** (n - 1)


def test_ideal_j_minimal_generators():
    assert ideal_j_mingens(CycloInstance(2, 1)) == 1
    assert ideal_j_mingens(CycloInstance(3, 1)) >= 2
    assert ideal_j_mingens(CycloInstance(2, 2)) >= 2


def test_sharpness_table():
    rows = sharpness_report()
    assert [(r["p"], r["n"]) for r in rows] == [(2, 1), (3, 1), (5, 1),
                                                (2, 2)]
    assert all(r["equal"] for r in rows)
    assert rows[0]["alpha"] == 1 and rows[3]["alpha"] == 2


def test_cyclotomic_degree_budget_admits_p2_up_to_n10():
    # sharpness is answered for every admitted p^n <= 256; p = 2 at n = 9
    # and n = 10 are admitted but still an open target (see README)
    for n in range(1, 11):
        assert CycloInstance(2, n).q_n[-1] == 1
    with pytest.raises(InputError, match=f"budget of {CYCLO_DEGREE_BUDGET}"):
        CycloInstance(2, 11)
    with pytest.raises(InputError, match=f"budget of {CYCLO_DEGREE_BUDGET}"):
        CycloInstance(1031, 1)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
                                  (13, 1), (2, 2), (3, 2), (2, 3)])
def test_j_system_budget_admits_the_default_D_and_its_recheck(monkeypatch,
                                                              p, n):
    inst = CycloInstance(p, n)
    seen = []
    monkeypatch.setattr(cyclo_suite, "_j_mingens_at",
                        lambda inst, D: seen.append(D) or 1)
    assert ideal_j_mingens(inst) == 1
    assert seen == [inst.D, inst.D + inst.e]


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                  (3, 2), (2, 3)])
def test_j_kernel_rows_bound_the_kernel_that_mingens_takes(monkeypatch, p, n):
    # exact at n = 1 and at p = 2
    sizes = []

    def recording(A, b, p, n):
        K, sol = kernel_solve(A, b, p, n)
        sizes.append(len(K))
        return K, sol

    monkeypatch.setattr(cyclo_suite, "kernel_solve", recording)
    inst = CycloInstance(p, n)
    for D in (inst.D, inst.D + 1, inst.D + inst.e, inst.D * 3 // 2):
        sizes.clear()
        cyclo_suite._j_mingens_at(inst, D)
        bound = cyclo_suite._j_kernel_rows(inst, D)
        assert bound == sizes[0] if (n == 1 or p == 2) else bound >= sizes[0]
