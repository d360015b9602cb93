"""Acceptance gate: the twelve headline checks, one test line each, the
pinned bytes of the homology report, and the box-free omega
certificates of two torsion groups.

Each test pins the exact instance it certifies (group, grading, box
radii, sample counts) and the wall-clock budget it must fit.  Run with
``pytest tests/test_acceptance.py -v`` to get the one-line-per-check
summary.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import goldman
from goldman import (
    AlgebraVector,
    Cochain,
    GroupSpec,
    boundary,
    box_support,
    bracket,
    coboundary,
    gk_cycle_check,
    h1_check,
    inner_h2_certify,
    linear_extension_check,
    main_theorem_check,
    omega_check,
    outer_h2_certify,
    surface_generator_check,
    surface_presentation,
    wedge_chain,
)
from goldman.cli import main as cli_main

from conftest import spec_pool, symplectic_z2, z2_z2torsion, z3_rank2_form

GOLDEN = "tests/golden/verify_all_surface23_box2_seed1.json"
HOMOLOGY_GOLDEN = "tests/golden/homology_surface12_box3.json"


def random_alternating_spec(rng, n):
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-3, 3)
            form[i][j] = v
            form[j][i] = -v
    return GroupSpec(n, form=form)


def test_criterion_01_bracket_axioms():
    """Skew-symmetry and Jacobi, exact, 560 triples over 8 groups, < 5 s."""
    start = time.monotonic()
    rng = random.Random(101)
    specs = spec_pool() + [random_alternating_spec(rng, rng.randint(2, 4))
                           for _ in range(3)]
    assert len(specs) >= 5
    triples = 0
    for spec in itertools.cycle(specs):
        if triples >= 560:
            break
        elems = [spec.element([rng.randint(-4, 4)
                               for _ in range(spec.n_generators)])
                 for _ in range(3)]
        a, b, c = (AlgebraVector.basis(e) for e in elems)
        assert (bracket(a, b) + bracket(b, a)).is_zero()
        jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
               + bracket(c, bracket(a, b)))
        assert jac.is_zero()
        triples += 1
    assert time.monotonic() - start < 5.0


def test_criterion_02_boundary_squares_to_zero():
    """d o d = 0 on 1000 random wedges up to degree 5, and the pairing
    duality (d eta)(c) = eta(d c), exact, < 10 s."""
    start = time.monotonic()
    rng = random.Random(202)
    specs = spec_pool()

    def probe(spec, degree):
        def rule(key):
            total = 0
            for i, f in enumerate(key):
                row = sum((j + 2) * c for j, c in enumerate(f))
                total += (i + 1) * row + row * row
            return Fraction(total)
        return Cochain(spec, degree, rule=rule)

    checked = 0
    while checked < 1000:
        spec = specs[rng.randrange(len(specs))]
        p = rng.randint(2, 5)
        c = wedge_chain(spec, [spec.element([rng.randint(-3, 3)
                                             for _ in range(spec.n_generators)])
                               for _ in range(p)])
        if c.is_zero():
            continue
        assert boundary(boundary(c)).is_zero()
        checked += 1
        if checked % 4 == 0:
            eta = probe(spec, p - 1)
            assert coboundary(eta, p - 1).evaluate(c) == eta.evaluate(boundary(c))
    assert time.monotonic() - start < 10.0


def test_criterion_03_outer_gradings_all_vanish():
    """H2 = 0 in every non-radical grading of the box-2 slice, for the
    symplectic plane and the one-holed torus with two boundary circles,
    at least two shift elements y each, the homotopy identity with the
    fixed coefficients proved over formal symbols; < 5 s."""
    start = time.monotonic()
    swept = 0
    for spec in (symplectic_z2(), surface_presentation(1, 2)):
        for z in box_support(spec, 2):
            if not z.is_derived_element():
                continue
            r = outer_h2_certify(spec, z, 2)
            assert r.verdict == "certified", (spec, z)
            assert len(r.details["y_choices"]) >= 2
            assert r.details["identity"] == "formal"
            assert "Phi_1 d_2 + d_3 Phi_2 = id" in r.details["identities"]
            assert "corrections" not in r.details
            assert r.details["h2_dim"] == 0
            swept += 1
    assert swept == 24 + 120
    assert time.monotonic() - start < 5.0


def test_criterion_04_inner_isomorphism_origin():
    """At the origin grading of the symplectic plane, cycle box 3 and
    boundary box 9: boundaries exhaust ker(f), f surjects onto the box
    generators, and the homology slice has dimension 2; < 2 s."""
    start = time.monotonic()
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 3)
    r = inner.result
    assert r.params["boundary_box"] == 9
    assert r.verdict == "certified"
    assert r.details["boundary_rank"] == r.details["kernel_of_f_dim"]
    assert r.details["f_surjective_on_box"]
    assert r.details["f_image_rank"] == 2
    assert r.details["box_generator_image_rank"] == 2
    assert r.details["quotient_dim"] == 2
    checked, exhaustive = inner.scan_f_kills_boundaries()
    assert exhaustive and checked > 0
    assert time.monotonic() - start < 2.0


def test_criterion_05_h2_decomposition():
    """On the genus-1 surface with two boundary circles, gradings 0, C1
    and 2 C1 at box 2 with boundary box 6: the full H2 dimension equals
    the radical pair count plus the derived-slice dimension, which is
    the rank of Q tensor H/Zz; exact, < 10 s."""
    start = time.monotonic()
    s12 = surface_presentation(1, 2)
    c1 = s12.element([0, 0, 1, 0])
    results = main_theorem_check(s12, [s12.zero, c1, 2 * c1], 2)
    expected_quotient = {0: 3, 1: 2, 2: 2}
    for k, r in enumerate(results):
        assert r.verdict == "certified"
        d = r.details
        assert d["component"] == "inner"
        assert d["quotient_dim"] == expected_quotient[k]
        assert d["inner_dim"] == d["quotient_dim"]
        assert d["h2_dim"] == d["kernel_pairs"] + d["inner_dim"]
        assert d["h2_dim"] == d["predicted"]
    assert time.monotonic() - start < 10.0


def test_criterion_06_h1_equals_center():
    """H1 is one-dimensional exactly in radical gradings and vanishes in
    derived ones, across the full box-2 sweep of both test groups."""
    for spec in (symplectic_z2(), surface_presentation(1, 2)):
        r = h1_check(spec, 2, None)
        assert r.verdict == "certified"
        for entry in r.details["per_grading"]:
            z = spec.canonical(entry["z"])
            assert entry["dim"] == (1 if z.in_kernel_mu() else 0)


def test_criterion_07_gk_cycle():
    """The tensor-square cycle over u = (1,0) at the origin grading of
    the symplectic plane: factors lie in ker K, the chain is a cycle,
    and its derived projection minus 6 [u]^[-u] bounds explicitly."""
    z2 = symplectic_z2()
    r = gk_cycle_check(z2, z2.element([1, 0]), z2.zero, 3)
    assert r.verdict == "certified"
    assert r.details["factors_in_gk"]
    assert r.details["is_cycle"]
    assert r.details["witness_verified"]
    assert r.details["boundary_witness"]


def test_criterion_08_omega_dichotomy():
    """The degree-3 class: a closed-form combination of rows proves it
    nonzero at the torsion grading of Z^2 + Z/2 (box 3), and an explicit
    primitive kills it at the free radical grading e3 of Z^3 with the
    rank-2 form, checked on every box triple; < 10 s combined."""
    start = time.monotonic()
    zt = z2_z2torsion()
    a = omega_check(zt, zt.element([0, 0, 1]), 3)
    assert a.verdict == "certified"
    assert a.details["z_is_torsion"]
    assert a.details["certificate"]

    z3 = z3_rank2_form()
    b = omega_check(z3, z3.element([0, 0, 1]), 3)
    assert b.verdict == "certified"
    assert not b.details["z_is_torsion"]
    assert b.details["primitive"]["formula"] == "eta([u]^[z-u]) = -2 f(u) + 1"
    assert b.details["triples_checked"] > 1000
    assert time.monotonic() - start < 10.0


def test_omega_torsion_certificates_do_not_depend_on_the_box():
    """At box 2 the closed-form rows prove omega nonzero on Z^2 + Z/16
    at z = t and on Z^2 + Z/40 at z = t and z = 20 t, with 2 ord(z) + 6
    rows each; < 2 s combined."""
    start = time.monotonic()
    for order, multiples in ((16, (1,)), (40, (1, 20))):
        spec = GroupSpec(3, relations=[[0, 0, order]],
                         form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        for k in multiples:
            r = omega_check(spec, spec.element([0, 0, k]), 2)
            assert r.verdict == "certified"
            assert r.details["z_is_torsion"]
            assert len(r.details["certificate"]) == 2 * (order // k) + 6
    assert time.monotonic() - start < 2.0


def test_criterion_09_surface_generator_classes():
    """Genus 2 with 3 boundary circles at the origin grading: the seven
    generator wedges span the 6-dimensional derived slice, and each
    boundary-class decomposition difference bounds explicitly."""
    r = surface_generator_check(2, 3)
    assert r.verdict == "certified"
    assert r.details["image_rank"] == 6
    assert r.details["spans"]
    assert len(r.details["decompositions"]) == 3
    for entry in r.details["decompositions"]:
        assert entry["ideal_member"]
        assert entry["derived_difference_bounds"]


def test_criterion_10_linear_extension_suite():
    """Additivity, the probe re-derivation and the negation identity
    hold for a functional with symbolic coefficients on symbolic
    elements (a formal proof, the same entry for every group), and a
    deliberately bumped functional is caught as the negative control."""
    r = linear_extension_check(symplectic_z2(), 2)
    assert r.verdict == "certified"
    assert r.details == {"identity": "formal", "identities": [
        "f(u+v) = f(u) + f(v)", "f(u+v) re-derived through a probe", "f(-u) = f(x) - f(u+x)",
        "a functional bumped at u is not additive (negative control)"]}
    r2 = linear_extension_check(z3_rank2_form(), 2)
    assert r2.verdict == "certified"
    assert r2.details == r.details


def test_criterion_11_cli_golden_report(tmp_path):
    """`verify --suite all --surface 2,3 --box 2 --seed 1` reproduces
    the committed golden report byte for byte, < 10 s."""
    start = time.monotonic()
    out = tmp_path / "report.json"
    code = cli_main(["verify", "--suite", "all", "--surface", "2,3",
                     "--box", "2", "--seed", "1", "--format", "json",
                     "--out", str(out)])
    assert time.monotonic() - start < 10.0
    assert code == 0
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    assert out.read_bytes() == golden
    report = json.loads(golden)
    assert report["summary"]["refuted"] == 0
    assert report["summary"]["inconclusive"] == 0


def test_cli_homology_surface12_box3_report(tmp_path):
    """`homology --surface 1,2 --box 3` reproduces the committed report
    byte for byte (64 gradings: the inner table and the main-theorem
    decomposition), < 5 s."""
    start = time.monotonic()
    out = tmp_path / "report.json"
    code = cli_main(["homology", "--surface", "1,2", "--box", "3",
                     "--format", "json", "--out", str(out)])
    assert time.monotonic() - start < 5.0
    assert code == 0
    with open(HOMOLOGY_GOLDEN, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_cli_homology_surface12_box3_report_under_python_O():
    """The same report under `python -O`: its re-checks are explicit
    ones, not asserts, so the bytes do not move; < 10 s."""
    start = time.monotonic()
    src = os.path.dirname(os.path.dirname(os.path.abspath(goldman.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "goldman", "homology", "--surface", "1,2",
         "--box", "3", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60)
    assert time.monotonic() - start < 10.0
    assert proc.returncode == 0, proc.stderr
    with open(HOMOLOGY_GOLDEN, "rb") as fh:
        assert proc.stdout == fh.read()


def test_criterion_12_inner_isomorphism_z2_box12():
    """Criterion 04 at cycle box 12 and boundary box 36 (312 derived
    wedges): the boundary columns reach rank 310 = dim ker(f), f
    surjects, and the homology slice has dimension 2; < 3 s."""
    start = time.monotonic()
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 12)
    r = inner.result
    assert r.verdict == "certified"
    assert r.details["cycle_wedges"] == 312
    assert r.details["boundary_rank"] == r.details["kernel_of_f_dim"] == 310
    assert r.details["f_surjective_on_box"]
    assert r.details["quotient_dim"] == r.details["space_dim"] == 2
    checked, exhaustive = inner.scan_f_kills_boundaries()
    assert checked > 0
    assert time.monotonic() - start < 3.0
