"""Tests for the certification layer.

Oracles here are independent of the code under test: predicted
dimensions come from closed-form counts (free rank, kernel pair
enumeration done inline with itertools), witnesses returned by the
package are re-expanded through the differential inside the tests, and
infeasibility certificates are re-multiplied against rebuilt rows.
"""

import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from goldman import (
    CERTIFIED,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    REFUTED,
    ContractingHomotopy,
    GroupSpec,
    QuotientTensorSpace,
    WedgeChain,
    boundary,
    box_by_weight,
    box_support,
    enumerate_basis,
    f_map,
    gk_cycle_check,
    h1_check,
    ideal_membership,
    inner_h2_certify,
    linear_extension_check,
    main_theorem_check,
    omega_check,
    outer_h2_certify,
    surface_generator_check,
    surface_presentation,
    wedge_chain,
)
from goldman import cli, verify
from goldman.complexes import Cochain, Wedge, coboundary, enumerate_keys
from goldman.formal import FormalSpec, Poly
from goldman.linalg import _IncrementalSpan
from goldman.verify import (
    CertificateError,
    InnerCertification,
    _ideal_generator,
    _pair_order,
    f_on_ordered,
)

from conftest import (
    HOMOTOPY_COEFFICIENTS,
    HOMOTOPY_IDENTITY,
    INNER_IDENTITIES,
    RADICAL_PAIRING,
    UNIT_PARTNER,
    g_map,
    omega_cocycle,
    reference_boundary,
    reference_homotopy_factors,
    reference_normalize,
    reference_pairing,
    spec_pool,
    symplectic_z2,
    torsion_only,
    z2_z2torsion,
    z3_rank2_form,
)


def assert_jsonable(result):
    """Every report entry must serialize; this catches stray Fractions."""
    json.dumps(result.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Quotient space and the maps f, g


def test_quotient_space_dimensions():
    z2 = symplectic_z2()
    assert QuotientTensorSpace(z2, z2.zero).dim == 2
    assert QuotientTensorSpace(z2, z2.element([1, 0])).dim == 1
    assert QuotientTensorSpace(z2, z2.element([2, 4])).dim == 1

    s12 = surface_presentation(1, 2)
    c1 = s12.element([0, 0, 1, 0])
    assert QuotientTensorSpace(s12, s12.zero).dim == 3
    assert QuotientTensorSpace(s12, c1).dim == 2

    zt = z2_z2torsion()
    # The torsion generator dies already, so modding by it costs nothing.
    assert QuotientTensorSpace(zt, zt.element([0, 0, 1])).dim == 2


def test_quotient_projection_kills_z_and_torsion():
    zt = z2_z2torsion()
    z = zt.element([1, 2, 1])
    q = QuotientTensorSpace(zt, z)
    assert all(v == 0 for v in q.proj(z))
    assert all(v == 0 for v in q.proj(zt.element([0, 0, 1])))
    assert all(v == 0 for v in q.proj(3 * z + zt.element([0, 0, 1])))


def test_quotient_projection_additive():
    rng = random.Random(5)
    s12 = surface_presentation(1, 2)
    q = QuotientTensorSpace(s12, s12.element([0, 0, 1, 0]))
    for _ in range(30):
        x = s12.element([rng.randint(-4, 4) for _ in range(4)])
        y = s12.element([rng.randint(-4, 4) for _ in range(4)])
        px, py, ps = q.proj(x), q.proj(y), q.proj(x + y)
        assert all(a + b == c for a, b, c in zip(px, py, ps))


def test_quotient_projection_is_integer():
    for spec, z in ((symplectic_z2(), [0, 0]), (z2_z2torsion(), [1, 2, 1]),
                    (surface_presentation(1, 2), [0, 0, 1, 0])):
        q = QuotientTensorSpace(spec, spec.element(z))
        for x in box_support(spec, 2):
            assert all(type(v) is int for v in q.proj(x))


def test_f_map_degree_two_is_first_factor_image():
    z2 = symplectic_z2()
    q = QuotientTensorSpace(z2, z2.zero)
    u = z2.element([3, -2])
    image = f_map(wedge_chain(z2, [u, -u]), q)
    # The stored wedge is [-u] ^ [u] or [u] ^ [-u]; either way f reads u.
    assert image == q.proj(u)


def test_f_map_rejects_degree_three():
    s12 = surface_presentation(1, 2)
    q = QuotientTensorSpace(s12, s12.zero)
    a = s12.element([1, 0, 0, 0])
    b = s12.element([0, 1, 0, 0])
    with pytest.raises(ValueError):
        f_map(wedge_chain(s12, [a, b, -a - b]), q)


def test_f_on_ordered_alternates():
    s12 = surface_presentation(1, 2)
    z = s12.element([1, 1, 0, 0])
    q = QuotientTensorSpace(s12, z)
    u = s12.element([1, 0, 0, 0])
    v = z - u
    assert f_on_ordered(q, (u.coords, v.coords)) == tuple(
        -x for x in f_on_ordered(q, (v.coords, u.coords)))


def test_g_map_sections_f():
    z2 = symplectic_z2()
    q = QuotientTensorSpace(z2, z2.zero)
    u = z2.element([1, 0])
    v = z2.element([1, 2])
    t = [(Fraction(3), (u,)), (Fraction(-1, 2), (v,))]
    chain = g_map(q, t)
    image = f_map(chain, q)
    direct = tuple(3 * x - Fraction(1, 2) * y
                   for x, y in zip(f_on_ordered(q, (u.coords, (-u).coords)),
                                   f_on_ordered(q, (v.coords, (-v).coords))))
    assert image == direct


def test_g_map_projects_kernel_lifts_away():
    s12 = surface_presentation(1, 2)
    q = QuotientTensorSpace(s12, s12.zero)
    c1 = s12.element([0, 0, 1, 0])
    assert g_map(q, [(Fraction(1), (c1,))]).is_zero()
    # The derived two-term lift of the same class survives.
    a = s12.element([1, 0, 0, 0])
    chain = g_map(q, [(Fraction(1), (c1 - a,)), (Fraction(1), (a,))])
    assert not chain.is_zero()
    assert f_map(chain, q) == q.proj(c1)


# ---------------------------------------------------------------------------
# Ideal membership


def test_ideal_membership_of_boundaries():
    z2 = symplectic_z2()
    rng = random.Random(11)
    for _ in range(10):
        u = z2.element([rng.randint(-1, 1), rng.randint(-1, 1)])
        v = z2.element([rng.randint(-1, 1), rng.randint(-1, 1)])
        c = boundary(wedge_chain(z2, [u, v, -u - v]))
        if c.is_zero():
            continue
        status, evidence = ideal_membership(c, 2)
        assert status is True
        # Re-expand the witness combination independently.
        recon = WedgeChain(z2, 2)
        for coeff_s, uc, vc in evidence["witness"]:
            gu, gv = z2.canonical(uc), z2.canonical(vc)
            gen = (wedge_chain(z2, [gu + gv, -gu - gv])
                   - wedge_chain(z2, [gu, -gu])
                   - wedge_chain(z2, [gv, -gv]))
            recon = recon + Fraction(coeff_s) * gen
        assert recon == c


def test_ideal_membership_obstruction():
    z2 = symplectic_z2()
    u = z2.element([1, 0])
    status, why = ideal_membership(wedge_chain(z2, [u, -u]), 2)
    assert status is False
    assert "f_image" in why


def test_ideal_membership_zero_chain():
    z2 = symplectic_z2()
    status, _ = ideal_membership(WedgeChain(z2, 2), 1)
    assert status is True


# ---------------------------------------------------------------------------
# Contracting homotopy


def test_homotopy_identity_on_sampled_wedges():
    for spec, zc in ((symplectic_z2(), [1, 0]),
                     (symplectic_z2(), [2, -1]),
                     (surface_presentation(1, 2), [1, 1, 1, 0]),
                     (z2_z2torsion(), [0, 1, 1])):
        z = spec.element(zc)
        support = box_support(spec, 2)
        keys = enumerate_basis(support, 2, z)
        assert keys, (spec, zc)
        hom = ContractingHomotopy(spec, z, verify._partner(spec, z))
        for key in keys:
            assert hom.identity_defect(key).is_zero(), (spec, zc, key)


def test_homotopy_bounds_cycles():
    z2 = symplectic_z2()
    z = z2.element([1, 2])
    hom = ContractingHomotopy(z2, z, verify._partner(z2, z))
    # A difference of two wedges with equal d2 image is a cycle.
    u = z2.element([1, 0])
    v = z2.element([0, 1])
    cu = wedge_chain(z2, [u, z - u], Fraction(1, z2.pairing(u, z - u)))
    cv = wedge_chain(z2, [v, z - v], Fraction(1, z2.pairing(v, z - v)))
    cycle = cu - cv
    assert boundary(cycle).is_zero()
    x = _phi2_chain(hom, cycle)
    assert boundary(x) == cycle


def _phi2_chain(hom, c):
    """Phi_2 of the chain c: ``phi2_keys`` of its Fraction terms, over
    the homotopy's scale."""
    return WedgeChain.from_keys(c.spec, 3, {key: v / hom.scale
                                            for key, v in hom.phi2_keys(c.terms).items()})


def _serialized(chain):
    return [[str(c), [list(f) for f in key]] for key, c in sorted(chain.terms.items())]


def _reference_outer_witnesses(spec, z, box, y):
    """The five outer cycle witnesses by the chain path: Fraction cycles,
    Phi_2 of their Fraction terms as a WedgeChain, its boundary, then each
    chain's terms in key order with str of each Fraction."""
    keys = _scan_keys(spec, z, box)
    d2s = [-spec.pair_coords(*key) for key in keys]
    pivot = next((col for col, d2 in enumerate(d2s) if d2), None)
    hom = ContractingHomotopy(spec, z, y)
    out = []
    for col in [col for col in range(len(keys)) if col != pivot][:5]:
        terms = {keys[col]: Fraction(1)}
        if d2s[col]:
            terms[keys[pivot]] = Fraction(-d2s[col], d2s[pivot])
        c = WedgeChain.from_keys(spec, 2, terms)
        x = _phi2_chain(hom, c)
        assert boundary(x) == c
        out.append({"cycle": _serialized(c), "preimage": _serialized(x)})
    return out


@pytest.mark.parametrize("spec, zc, box", [
    (symplectic_z2(), (1, 0), 2),
    (symplectic_z2(), (1, 2), 2),
    (symplectic_z2(), (2, -1), 3),
    (surface_presentation(1, 2), (1, 0, 0, 0), 2),
    (surface_presentation(1, 2), (1, 1, 1, 0), 2),
    (surface_presentation(1, 2), (0, 1, -1, 0), 3),
], ids=["z2-10", "z2-12", "z2-2m1", "s12-1000", "s12-1110", "s12-01m10"])
def test_outer_witnesses_on_keys_match_the_chain_path(spec, zc, box):
    z = spec.element(list(zc))
    r = outer_h2_certify(spec, z, box)
    assert r.verdict == CERTIFIED
    y = spec.canonical(r.details["y_choices"][0])
    assert r.details["witnesses"] == _reference_outer_witnesses(spec, z, box, y)
    assert len(r.details["witnesses"]) == 5


def test_homotopy_factors_are_the_lcm_of_the_rational_factors():
    # D = 2 lam^2 and (-2 lam, -2 lam, -2 lam, lam, 1) are the lcm of the
    # denominators of -1/lam, -1/lam, -1/lam, 1/(2 lam), 1/(2 lam^2) and
    # those factors times it, for either sign of lam.
    reference = reference_homotopy_factors(HOMOTOPY_COEFFICIENTS)
    for lam in [*range(-12, 0), *range(1, 13)]:
        scale, scaled = verify._homotopy_factors(lam)
        assert (scale, scaled) == reference(lam)
        assert type(scale) is int and all(type(c) is int for c in scaled)


def test_homotopy_rejects_radical_gradings_and_bad_y():
    z2 = symplectic_z2()
    with pytest.raises(ValueError):
        ContractingHomotopy(z2, z2.zero, z2.element([1, 0]))
    z = z2.element([1, 0])
    with pytest.raises(ValueError):
        ContractingHomotopy(z2, z, z2.element([2, 0]))


# (group, derived grading) pairs: free, surface, torsion, rank-2 form.
_HOMOTOPY_CASES = [
    (symplectic_z2(), [2, 1]),
    (surface_presentation(1, 2), [1, 1, 1, 0]),
    (z2_z2torsion(), [0, 1, 1]),
    (z3_rank2_form(), [1, 0, 1]),
]
_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def reference_identity_defect(spec, z, y, coefficients, wedge_key):
    """(Phi_1 d_2 + d_3 Phi_2 - id)[u]^[v] in Fractions, from the
    ContractingHomotopy docstring and the reference differential; the
    wedge is given by its key (u, v)."""
    u, v = (spec.canonical(list(f)) for f in wedge_key)
    lam = Fraction(reference_pairing(spec, y, z))
    co = coefficients
    out = {}

    def add(chain):
        for key, coeff in chain.items():
            out[key] = out.get(key, 0) + coeff

    for coeff in reference_boundary(spec, [u, v]).values():
        # d_2([u] ^ [v]) is a multiple of [z]; Phi_1 takes [z] to
        # (phi1/lam) [y] ^ [z-y].
        sign, key = reference_normalize([y, z - y])
        if sign:
            add({key: coeff * sign * co["phi1"] / lam})
    tail = reference_pairing(spec, u - y, v - y)
    for coeff, factors in (
            (co["shift_first"] / lam, [y, u - y, v]),
            (co["shift_second"] / lam, [y, u, v - y]),
            (co["shift_both"] / (2 * lam), [2 * y, u - y, v - y]),
            (co["tail"] * tail / (2 * lam * lam), [y, 2 * y, z - 3 * y])):
        add(reference_boundary(spec, factors, coeff))
    add({wedge_key: Fraction(-1)})
    return {k: c for k, c in out.items() if c}


def _defect_dict(hom, key):
    return hom.identity_defect(key).terms


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_identity_defect_matches_reference_for_any_coefficients(data):
    spec, zc = data.draw(st.sampled_from(_HOMOTOPY_CASES))
    z = spec.element(zc)
    y = verify._partner(spec, z)
    coefficients = {name: data.draw(_RATIONALS)
                    for name in ("phi1", "shift_first", "shift_second",
                                 "shift_both", "tail")}
    with mock.patch.object(verify, "_homotopy_factors",
                           reference_homotopy_factors(coefficients)):
        hom = ContractingHomotopy(spec, z, y)
    keys = enumerate_basis(box_support(spec, 2), 2, z)
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6)):
        assert _defect_dict(hom, key) == reference_identity_defect(
            spec, z, y, coefficients, key)


@pytest.mark.parametrize("case", range(len(_HOMOTOPY_CASES)))
def test_perturbed_homotopy_leaves_a_defect(case):
    spec, zc = _HOMOTOPY_CASES[case]
    z = spec.element(zc)
    y = verify._partner(spec, z)
    exact = ContractingHomotopy(spec, z, y)
    # Phi_1 d_2 alone moves with phi1: a wedge with <u, v> != 0 gains
    # -delta <u, v> / lam [y] ^ [z-y], which nothing else can cancel.
    coefficients = dict(HOMOTOPY_COEFFICIENTS, phi1=Fraction(-4, 3))
    with mock.patch.object(verify, "_homotopy_factors",
                           reference_homotopy_factors(coefficients)):
        perturbed = ContractingHomotopy(spec, z, y)
    assert 2 * y != z
    keys = enumerate_basis(box_support(spec, 2), 2, z)
    moved = 0
    for key in keys:
        assert _defect_dict(exact, key) == {}
        assert reference_identity_defect(spec, z, y, HOMOTOPY_COEFFICIENTS, key) == {}
        want = reference_identity_defect(spec, z, y, coefficients, key)
        assert _defect_dict(perturbed, key) == want
        if reference_pairing(spec, *(spec.canonical(list(f)) for f in key)):
            assert want
            moved += 1
    assert moved


def _scan_keys(spec, z, radius=2):
    support = box_support(spec, radius)
    return list(enumerate_keys(spec, [x.coords for x in support], 2, z.coords))


@pytest.mark.parametrize("case", range(len(_HOMOTOPY_CASES)))
def test_a_full_scan_leaves_every_homotopy_slot_unchanged(case, monkeypatch):
    # A homotopy keeps no scan state: no slot is written after __init__,
    # and no value a slot holds changes during a full-slice scan.
    spec, zc = _HOMOTOPY_CASES[case]
    z = spec.element(zc)
    hom = ContractingHomotopy(spec, z, verify._partner(spec, z))
    keys = _scan_keys(spec, z, 3)
    slots = {name: getattr(hom, name) for name in ContractingHomotopy.__slots__}
    elements = ("spec", "z", "y")
    before = {name: copy.deepcopy(value) for name, value in slots.items()
              if name not in elements}
    writes = []
    monkeypatch.setattr(ContractingHomotopy, "__setattr__",
                        lambda self, name, value: writes.append(name))
    assert not any(hom.key_defect(key) for key in keys)
    assert writes == []
    assert all(getattr(hom, name) is value for name, value in slots.items())
    assert {name: getattr(hom, name) for name in before} == before


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_key_defect_matches_reference_in_any_scan_order(data):
    spec, zc = data.draw(st.sampled_from(_HOMOTOPY_CASES))
    z = spec.element(zc)
    y = verify._partner(spec, z)
    coefficients = {name: data.draw(_RATIONALS)
                    for name in ("phi1", "shift_first", "shift_second",
                                 "shift_both", "tail")}
    with mock.patch.object(verify, "_homotopy_factors",
                           reference_homotopy_factors(coefficients)):
        hom = ContractingHomotopy(spec, z, y)
    keys = enumerate_basis(box_support(spec, 2), 2, z)
    assert keys == _scan_keys(spec, z)
    # One homotopy serves the whole scan, and a wedge's defect depends
    # only on its key, so the keys may come in any order.
    order = data.draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    if order == "reversed":
        keys.reverse()
    elif order == "shuffled":
        random.Random(data.draw(st.integers(0, 2 ** 16))).shuffle(keys)
    for key in keys:
        want = reference_identity_defect(spec, z, y, coefficients, key)
        got = hom.key_defect(key)
        assert {k: Fraction(c, hom.scale) for k, c in got.items()} == want
        assert all(type(c) is int and c for c in got.values())


@pytest.mark.parametrize("case", range(len(_HOMOTOPY_CASES)))
def test_scan_computes_each_boundary_once(case, monkeypatch):
    spec, zc = _HOMOTOPY_CASES[case]
    z = spec.element(zc)
    calls = []
    terms = verify._boundary_terms

    def spy(on, key):
        calls.append((on, key))
        return terms(on, key)

    monkeypatch.setattr(verify, "_boundary_terms", spy)
    r = outer_h2_certify(spec, z, 3)
    assert r.verdict == CERTIFIED
    # d_2 once per wedge of a prefix of the slice, which ends at the
    # pivot and five witness wedges; the slice is counted, not walked.
    # No d_3 of a wedge of the group: the homotopy identity runs over
    # symbols.
    keys = _scan_keys(spec, z, 3)
    on_spec = [key for on, key in calls if on is spec]
    assert on_spec == keys[:len(on_spec)] and 6 <= len(on_spec) < len(keys)
    assert r.details["wedges"] == len(keys)
    assert {len(key) for on, key in calls if on is not spec} == {2, 3}

    # A homotopy takes no boundary at construction.
    for y in r.details["y_choices"]:
        calls.clear()
        ContractingHomotopy(spec, z, spec.canonical(y))
        assert calls == []


@pytest.mark.parametrize("name", ["tail", "shift_first"])
def test_scan_finds_the_defect_of_a_perturbed_coefficient(name):
    spec = surface_presentation(1, 2)
    z = spec.element([1, 1, 1, 0])
    y = verify._partner(spec, z)
    coefficients = dict(HOMOTOPY_COEFFICIENTS, **{name: Fraction(3, 2)})
    with mock.patch.object(verify, "_homotopy_factors",
                           reference_homotopy_factors(coefficients)):
        perturbed = ContractingHomotopy(spec, z, y)
    keys = _scan_keys(spec, z)
    defects = [key for key in keys if perturbed.key_defect(key)]
    assert defects
    for key in defects:
        want = reference_identity_defect(spec, z, y, coefficients, key)
        assert {k: Fraction(c, perturbed.scale)
                for k, c in perturbed.key_defect(key).items()} == want

    # The same perturbation as the default: the formal identity fails,
    # and the entry is refuted naming it, with nothing refitted.
    with mock.patch.object(verify, "_homotopy_factors",
                           reference_homotopy_factors(coefficients)):
        (r,) = cli.run_outer_suite(spec, [z], 2)
    assert (r.verdict, r.details) == (REFUTED, {"failed_identity": HOMOTOPY_IDENTITY})


def _formal_images(monkeypatch):
    """The (homotopy, key) pairs on which the outer certificate evaluates
    the homotopy identity, recorded through ``key_defect``."""
    seen = []
    defect = ContractingHomotopy.key_defect

    def spy(self, key):
        seen.append((self, key))
        return defect(self, key)

    monkeypatch.setattr(ContractingHomotopy, "key_defect", spy)
    spec = symplectic_z2()
    assert outer_h2_certify(spec, spec.element([2, 1]), 2).verdict == CERTIFIED
    monkeypatch.setattr(ContractingHomotopy, "key_defect", defect)
    return seen


def test_a_defect_on_any_one_wedge_stops_the_outer_certificate(monkeypatch):
    # The identity is evaluated on two wedges [u] ^ [z-u] of formal
    # symbols, and on no wedge of the group; a defect on either of them
    # refutes every outer grading, naming the identity.
    seen = _formal_images(monkeypatch)
    assert len(seen) == 2
    assert all(isinstance(hom.spec, FormalSpec) for hom, _ in seen)
    spec = symplectic_z2()
    defect = ContractingHomotopy.key_defect
    for _, target in seen:
        def shifted(self, key, target=target):
            return {**defect(self, key), key: 1} if key == target else defect(self, key)

        monkeypatch.setattr(ContractingHomotopy, "key_defect", shifted)
        results = cli.run_outer_suite(spec, [spec.element([2, 1]), spec.element([1, 0])], 2)
        assert [(r.verdict, r.details) for r in results] == [
            (REFUTED, {"failed_identity": HOMOTOPY_IDENTITY})] * 2, target


@pytest.mark.parametrize("target", ["tail", "shift"])
def test_dropping_one_boundary_term_stops_the_outer_certificate(target, monkeypatch):
    # d_3 of the tail wedge, or of the first Phi_2 term, of a formal
    # wedge the identity is evaluated on loses one term.
    (hom, key), _ = _formal_images(monkeypatch)
    bad = hom._tail_term[1] if target == "tail" else hom._scaled_phi2(*key)[0][1]
    assert verify._boundary_terms(hom.spec, bad)
    terms = verify._boundary_terms
    monkeypatch.setattr(verify, "_boundary_terms",
                        lambda spec, key: terms(spec, key)[1:] if key == bad
                        else terms(spec, key))
    spec = surface_presentation(1, 2)
    (r,) = cli.run_outer_suite(spec, [spec.element([1, 1, 1, 0])], 2)
    assert (r.verdict, r.details) == (REFUTED, {"failed_identity": HOMOTOPY_IDENTITY})


@pytest.mark.parametrize("spec, zc, box", [
    (surface_presentation(1, 2), [1, 1, 1, 0], 2),
    (surface_presentation(2, 3), [1, 0, 0, 0, 0, 0, 0], 1),
    (z2_z2torsion(), [1, 0, 1], 0),
])
def test_outer_y_choices_are_the_lightest_pairing_elements(spec, zc, box):
    z = spec.element(zc)
    pairing = [y for y in box_support(spec, max(box, 1)) if spec.pairing(y, z)]
    want = [list(y.coords) for y in sorted(pairing, key=lambda e: e.sort_key())[:2]]
    # Coordinate order would pick other y's: the weight decides.
    assert [list(y.coords) for y in pairing[:2]] != want
    assert outer_h2_certify(spec, z, box).details["y_choices"] == want


# The unit choices against the box walks they replace: the pool, a
# torsion group with a free part of rank 3, and Z^2 + Z/16.
_UNIT_CASES = [
    *spec_pool(),
    GroupSpec(4, relations=[[0, 0, 0, 5]],
              form=[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    GroupSpec(3, relations=[[0, 0, 16]], form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
]


@pytest.mark.parametrize("spec", _UNIT_CASES, ids=lambda spec: spec.label)
def test_every_derived_grading_of_box2_has_a_partner(spec):
    # The units generate H, so a derived z pairs nonzero with one of
    # them; a radical z with none, which refutes, naming the lemma.
    for z in box_support(spec, 2):
        partners = [y for y in spec.units if spec.pairing(y, z)]
        if z.is_derived_element():
            assert verify._partner(spec, z) == partners[0]
        else:
            assert partners == []
            with pytest.raises(CertificateError) as info:
                verify._partner(spec, z)
            assert info.value.identity == UNIT_PARTNER


def _box_walk_y_choices(spec, z, box):
    """The outer y's as the weight walk of the box found them: the first
    two elements of box(max(box, 1)) in sort_key order pairing nonzero
    with z."""
    walk = box_by_weight(spec, max(box, 1))
    return [list(y.coords) for y in itertools.islice(
        (y for y in walk if spec.pairing(y, z)), 2)]


def _walking_box1(spec):
    """A copy of spec whose units are all of box(1) in weight order, the
    walk that h1's u and omega's pair (a, b) read before the units."""
    walking = GroupSpec(spec.n_generators, spec.relations, spec.form)
    walking.units = tuple(box_by_weight(walking, 1))
    return walking


@pytest.mark.parametrize("spec", _UNIT_CASES, ids=lambda spec: spec.label)
def test_unit_choices_are_the_box_walks_they_replace(spec, monkeypatch):
    # On the 60 lightest gradings of box(2): the outer y's, h1's u (its
    # preimages) and omega's pair (its rows) are what the box walks gave.
    # The kernel checks read each copy's units and are not compared here.
    monkeypatch.setattr(verify, "_kernel_identities", lambda spec: [])
    walking, proofs = _walking_box1(spec), verify.Proofs()
    gradings = list(itertools.islice(box_by_weight(spec, 2), 60))
    walked = [walking.canonical(list(z.coords)) for z in gradings]
    for z, zw in zip(gradings, walked):
        if z.is_derived_element():
            assert outer_h2_certify(spec, z, 1, proofs).details["y_choices"] == (
                _box_walk_y_choices(spec, z, 1))
        elif not spec.mu_is_zero() and z.is_torsion():
            assert omega_check(spec, z, 1, proofs).details == omega_check(walking, zw, 1).details
    assert h1_check(spec, 2, gradings).details == h1_check(walking, 2, walked).details


# (group, radical grading) pairs: the origin of Z^2, a boundary class,
# a torsion grading, and the free radical direction of Z^3.
_OMEGA_CASES = [
    (symplectic_z2(), [0, 0]),
    (surface_presentation(1, 2), [0, 0, 1, 0]),
    (z2_z2torsion(), [0, 0, 1]),
    (z3_rank2_form(), [0, 0, 2]),
]


def _draw_wedge(data, spec, z, p):
    """Distinct factors summing to z, sorted, or None on a repeat."""
    n = spec.n_generators
    factors = [spec.canonical(data.draw(st.lists(st.integers(-3, 3),
                                                 min_size=n, max_size=n)))
               for _ in range(p - 1)]
    last = z
    for f in factors:
        last = last - f
    factors.append(last)
    sign, key = reference_normalize(factors)
    return (sorted(factors), key) if sign else (None, None)


@given(st.lists(st.integers(-60, 60), max_size=6))
def test_extended_gcd_vector_gives_bezout_coefficients(values):
    coeffs, g = verify._extended_gcd_vector(values)
    assert len(coeffs) == len(values)
    assert sum(a * v for a, v in zip(coeffs, values)) == g
    assert g == math.gcd(*values) and g >= 0
    assert (g == 0) == (not any(values))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_integer_omega_and_eta_values_match_coboundaries(data):
    spec, zc = data.draw(st.sampled_from(_OMEGA_CASES))
    z = spec.element(zc)
    factors, key = _draw_wedge(data, spec, z, 4)
    if factors is not None:
        want = coboundary(omega_cocycle(spec, z), 3).value(key)
        reference = sum(
            c * reference_pairing(spec, spec.canonical(k[0]), spec.canonical(k[1]))
            for k, c in reference_boundary(spec, factors).items())
        assert verify._d_omega(spec, key) == want == reference == 0
    if z.is_torsion():
        return
    # eta([a] ^ [b]) = -2 f(a) + 1 for f(x) = <z, x>_free / |z|^2, so f(z) = 1.
    free = spec.free_indices
    g = sum(z.coords[j] ** 2 for j in free)

    def f_num(x):
        return sum(z.coords[j] * x[j] for j in free)

    eta = Cochain(spec, 2,
                  rule=lambda key: Fraction(-2 * f_num(key[0]), g) + 1)
    factors, key = _draw_wedge(data, spec, z, 3)
    if factors is None:
        return
    got = verify._scaled_d_eta(spec, key, f_num, g)
    assert got == g * coboundary(eta, 2).value(key)
    assert got == g * reference_pairing(spec, factors[0], factors[1])


# ---------------------------------------------------------------------------
# Inner certification


def test_inner_certification_z2_origin():
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 3)
    r = inner.result
    assert r.verdict == CERTIFIED
    # Box 3 has 48 derived elements, hence 24 wedges [x] ^ [-x]; the
    # quotient Q (x) H is Q^2, so the boundary rank must be 24 - 2.
    assert r.details["cycle_wedges"] == 24
    assert r.details["boundary_rank"] == 22
    assert r.details["f_image_rank"] == 2
    assert r.details["quotient_dim"] == 2
    assert r.details["f_surjective_on_box"]
    assert_jsonable(r)


def _row_vector(inner, chain):
    """The integer vector {row of W: coefficient} of a chain on W."""
    return {inner.rows[key]: c for key, c in chain.terms.items()}


def _witness_chain(spec, witness):
    """The chain keys / scale of a key witness (scale, {3-key: int})."""
    scale, keys = witness
    return WedgeChain.from_keys(spec, 3, {k: Fraction(c, scale) for k, c in keys.items()})


def test_inner_witnesses_re_expand():
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 3)
    for vec, witness in inner.columns:
        scale, keys = witness
        # One key for a direct witness, at most three for a telescoped one,
        # all integers.
        assert type(scale) is int and scale
        assert 1 <= len(keys) <= 3
        assert all(type(c) is int for c in keys.values())
        assert _row_vector(inner, boundary(_witness_chain(z2, witness))) == vec


def test_inner_boundary_witness_for_arbitrary_boundary():
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 3)
    rng = random.Random(3)
    found = 0
    for _ in range(20):
        u = z2.element([rng.randint(-1, 1), rng.randint(-1, 1)])
        v = z2.element([rng.randint(-1, 1), rng.randint(-1, 1)])
        c = boundary(wedge_chain(z2, [u, v, -u - v], Fraction(rng.randint(1, 5))))
        if c.is_zero():
            continue
        x = inner.boundary_witness(c)
        assert x is not None
        assert boundary(x) == c
        found += 1
    assert found >= 5


def test_inner_boundary_witness_rejects_nonboundaries():
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 3)
    u = z2.element([1, 0])
    assert inner.boundary_witness(wedge_chain(z2, [u, -u])) is None


def test_inner_zero_form_is_not_certified():
    # No wedge is derived, so the slice is empty and the boundaries
    # exhaust ker f vacuously, but Q (x) (H / Zz) = Q: the two sides of
    # the isomorphism differ.
    flat = surface_presentation(0, 2)
    r = inner_h2_certify(flat, flat.zero, 2).result
    assert (r.details["quotient_dim"], r.details["space_dim"]) == (0, 1)
    assert r.verdict == INCONCLUSIVE
    assert r.details["note"] == "the quotient dimension differs from dim Q (x) (H / Zz)"


def test_inner_support_cap_reduces_radius(monkeypatch):
    monkeypatch.setattr(verify, "INNER_SUPPORT_CAP", 9)
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 3)
    assert inner.effective_radius == 1
    assert inner.result.details["effective_radius"] == 1
    assert inner.boundary_radius == 9


def test_inner_requires_radical_grading_and_wide_boundary_box():
    z2 = symplectic_z2()
    with pytest.raises(ValueError):
        inner_h2_certify(z2, z2.element([1, 0]), 2)
    # The boundary box is always three times the cycle box.
    assert inner_h2_certify(z2, z2.zero, 2).result.params["boundary_box"] == 6


def test_inner_f_scan_rechecks_every_boundary(monkeypatch):
    # A projection that is not additive is not an f the proof of
    # f(d(w)) = 0 covers: the entry is refuted naming the additivity check.
    z2 = symplectic_z2()
    proj = QuotientTensorSpace.proj_coords
    monkeypatch.setattr(QuotientTensorSpace, "proj_coords",
                        lambda self, c: tuple(v * v for v in proj(self, c)))
    (entry,) = cli.run_inner_suite(z2, [z2.zero], 2)
    assert (entry.verdict, entry.details) == (
        REFUTED, {"failed_identity": "proj_coords is additive on signed units"})


def _reference_f_scan(inner):
    """{key: f(d(w))} on the derived 3-wedges w of the boundary box cut to
    20,000 elements with two factors in a pool: every derived element
    when there are at most 632, else the 63 lightest.  d is
    ``reference_boundary`` and f(face) the projection of its first factor."""
    spec, proj, dim = inner.spec, inner.qspace.proj_coords, inner.qspace.dim
    radius = verify._capped_radius(spec, inner.boundary_radius, 20000)
    support = [x for x in verify.box_by_weight(spec, radius) if x.is_derived_element()]
    pool = support if len(support) ** 2 <= 400000 else support[:63]
    members = set(support)
    values = {}
    for u, v in itertools.combinations(pool, 2):
        w = inner.z - u - v
        key = reference_normalize([u, v, w])[1]
        if w in members and key is not None and key not in values:
            d = reference_boundary(spec, [u, v, w])
            values[key] = [sum(c * proj(face[0])[t] for face, c in d.items()) for t in range(dim)]
    return values


@pytest.mark.parametrize("spec, zc, box", [
    (symplectic_z2(), (0, 0), 2),
    (symplectic_z2(), (0, 0), 12),
    (surface_presentation(1, 2), (0, 0, 0, 0), 3),
    (surface_presentation(1, 2), (0, 0, 0, 1), 3),
    (surface_presentation(1, 2), (0, 0, 0, 2), 3),
    (z2_z2torsion(), (0, 0, 0), 3),
    (surface_presentation(3, 2), (0,) * 8, 1),
], ids=["z2-box2", "z2-box12", "s12-z0", "s12-z1", "s12-z2", "torsion-box3",
        "s32-box1-fallback"])
def test_f_scan_matches_the_whole_box_scan(spec, zc, box):
    # The proof that f kills every boundary agrees with a scan of the
    # boundary box through the reference differential: f(d(w)) = 0 on
    # every key it finds.
    inner = inner_h2_certify(spec, spec.canonical(list(zc)), box)
    assert inner.scan_f_kills_boundaries() == inner.identities == INNER_IDENTITIES
    values = _reference_f_scan(inner)
    assert values and not any(any(f) for f in values.values())
    if box == 1:
        # The 63 lightest derived elements come from the whole box(1).
        assert len(values) == 1318


# ---------------------------------------------------------------------------
# The exact column span


sparse_columns = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=5),
    max_size=14)


class _FractionEchelon:
    """Plain Gaussian elimination over Fractions, the reference for the
    reduced echelon of _IncrementalSpan."""

    def __init__(self):
        self.rows = []

    def reduce(self, col):
        vec = {k: Fraction(v) for k, v in col.items() if v}
        for pivot, basis in self.rows:
            c = vec.get(pivot)
            if c:
                for k, b in basis.items():
                    x = vec.get(k, 0) - c * b
                    if x:
                        vec[k] = x
                    else:
                        vec.pop(k, None)
        return vec

    def add(self, vec):
        pivot = min(vec)
        inv = 1 / vec[pivot]
        self.rows.append((pivot, {k: v * inv for k, v in vec.items()}))

    def insert(self, col):
        vec = self.reduce(col)
        if vec:
            self.add(vec)
        return bool(vec)


@given(sparse_columns)
@settings(max_examples=200, deadline=None)
def test_reduced_echelon_matches_fraction_elimination(columns):
    reference = _FractionEchelon()
    span = _IncrementalSpan()
    leads = []
    for col in columns:
        residual = span.reduce(col)
        if residual:
            leads.append(residual[min(residual)])
        expected = reference.insert(col)
        assert span.insert(col) == expected
    assert span.rank == len(reference.rows)
    # Reduced: no tail touches a pivot row, and the index lists exactly
    # the pivots whose tails use each row.
    users = {}
    for r, tail in span.pivots.items():
        assert not set(tail) & set(span.pivots)
        assert all(tail.values())
        for s in tail:
            users.setdefault(s, set()).add(r)
    assert {s: u for s, u in span._users.items() if u} == users
    # Integer columns with unit leads never leave integer arithmetic.
    if all(lead in (1, -1) for lead in leads):
        assert all(type(v) is int for tail in span.pivots.values()
                   for v in tail.values())


def test_exact_span_keeps_columns_dependent_modulo_a_prime():
    # Modulo p = 2^61 - 1 the first column is (0, 1), the second one's
    # multiple; over Q the two are independent.
    span = _IncrementalSpan()
    assert span.insert({0: (1 << 61) - 1, 1: 1})
    assert span.insert({1: 1})
    assert span.rank == 2


@given(st.lists(st.integers(0, 4), max_size=12))
@settings(max_examples=200, deadline=None)
def test_pair_order_is_the_sorted_pair_order(weights):
    weights = sorted(weights)
    n = len(weights)
    expected = sorted(((i, j) for j in range(n) for i in range(j + 1)),
                      key=lambda ij: (weights[ij[0]] + weights[ij[1]], ij[0], ij[1]))
    assert list(_pair_order(weights)) == expected


def test_pair_order_edge_cases():
    assert list(_pair_order([])) == []
    assert list(_pair_order([3])) == [(0, 0)]
    assert list(_pair_order([1, 1])) == [(0, 0), (0, 1), (1, 1)]


def _factors(inner):
    """The factors of W as group elements, in sort_key order."""
    spec = inner.spec
    return sorted({spec.canonical(list(f)) for key in inner.wedges for f in key},
                  key=lambda e: e.sort_key())


def _row_steps(inner, elements):
    """Indices of the derived box(1) elements among the factors of W,
    in weight order."""
    ordered = sorted(box_support(inner.spec, 1), key=lambda e: e.sort_key())
    return [elements.index(e) for e in ordered
            if e.is_derived_element() and e in elements]


def _triangular_reference(inner, elements, steps):
    """The triangular pairs of the documented rule, from group elements:
    for each row r = [a]^[z-a], lightest row first, and each factor a of
    it in turn, the first step e with x = a - e a factor of W,
    x != e, and the rows of x and e after r; as sorted index pairs."""
    spec = inner.spec
    row_of = {spec.canonical(list(f)): r for r, key in enumerate(inner.wedges) for f in key}
    pairs = []
    for r in reversed(range(len(inner.wedges))):
        row = [spec.canonical(list(f)) for f in inner.wedges[r]]
        for a, k in itertools.product(row, steps):
            e = elements[k]
            x = a - e
            if x != e and row_of.get(x, -1) > r and row_of[e] > r:
                pairs.append(tuple(sorted((elements.index(x), k))))
                break
    return pairs


def _reference_columns(inner):
    """The greedy columns of the inner pass over the fully materialised
    candidate list in the documented order, with exact elimination, as
    integer vectors {row of W: coefficient} of G(u, v) built from group
    elements.

    The order: the triangular pairs, lightest row first; then every
    other pair by weight sum and sort keys."""
    spec, z = inner.spec, inner.z
    elements = _factors(inner)
    n = len(elements)
    seeds = _triangular_reference(inner, elements, _row_steps(inner, elements))
    first = {ij: (0, t) for t, ij in enumerate(seeds)}

    def place(ij):
        u, v = elements[ij[0]], elements[ij[1]]
        return first.get(ij, (1, u.weight() + v.weight(), u.sort_key(), v.sort_key()))

    pairs = sorted(((i, j) for j in range(n) for i in range(j + 1)), key=place)
    probes = [x.coords for x in sorted(inner.support, key=lambda e: e.sort_key())
              if x != spec.zero][:80]
    span = _FractionEchelon()
    columns = []
    for i, j in pairs:
        if len(span.rows) >= inner.target_rank:
            break
        u, v = elements[i], elements[j]
        gen = _ideal_generator(spec, z, u, v)
        if gen.is_zero() or any(key not in inner.rows for key in gen.terms):
            continue
        column = _row_vector(inner, gen)
        vec = span.reduce(column)
        if vec and verify._generator_witness(spec, z.coords, u.coords, v.coords,
                                             probes) is not None:
            span.add(vec)
            columns.append(column)
    return columns


@pytest.mark.parametrize("spec, box", [
    (symplectic_z2(), 4),
    (z2_z2torsion(), 2),
    (surface_presentation(1, 2), 2),
    # The greedy columns at the origin of Z^2 + Z/p are independent over
    # Q but not modulo p.
    (z2_z2torsion(), 1),
    (GroupSpec(3, relations=[[0, 0, 3]],
               form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), 1),
], ids=["z2-box4", "z2+z/2-box2", "surface12-box2", "z2+z/2-box1",
        "z2+z/3-box1"])
def test_inner_columns_match_the_sorted_reference_greedy(spec, box):
    inner = inner_h2_certify(spec, spec.zero, box)
    assert inner.result.verdict == CERTIFIED
    assert [vec for vec, _ in inner.columns] == _reference_columns(inner)


@pytest.mark.parametrize("spec, box", [
    (symplectic_z2(), 4),
    (z2_z2torsion(), 2),
    (surface_presentation(1, 2), 2),
], ids=["z2-box4", "z2+z/2-box2", "surface12-box2"])
def test_inner_candidate_stream_is_a_permutation_of_all_pairs(spec, box, monkeypatch):
    streams = []
    column_pass = InnerCertification._column_pass

    def materialising(self, pair_order, *rest):
        pairs = list(pair_order)
        streams.append(pairs)
        return column_pass(self, iter(pairs), *rest)

    monkeypatch.setattr(InnerCertification, "_column_pass", materialising)
    inner = inner_h2_certify(spec, spec.zero, box)
    assert inner.result.verdict == CERTIFIED
    elements = _factors(inner)
    index = {x.coords: i for i, x in enumerate(elements)}
    for stream in streams:
        # The stream offers coordinate pairs (u, v), u before v in
        # sort_key order.
        pairs = [(index[u], index[v]) for u, v in stream]
        n = len(elements)
        assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i, n)]
        # The triangular pairs, then the rest by weight sum and indices.
        seeds = _triangular_reference(inner, elements, _row_steps(inner, elements))
        assert seeds and pairs[:len(seeds)] == seeds
        weights = [x.weight() for x in elements]
        assert pairs[len(seeds):] == sorted(
            set(pairs) - set(seeds),
            key=lambda ij: (weights[ij[0]] + weights[ij[1]], ij[0], ij[1]))


@pytest.mark.parametrize("spec, box, seeds", [
    (symplectic_z2(), 12, 309),
    (surface_presentation(1, 2), 3, 164),
], ids=["z2-box12", "surface12-box3"])
def test_triangular_columns_lead_with_a_unit_on_their_own_rows(spec, box, seeds,
                                                                monkeypatch):
    recorded = []
    triangular_pairs = InnerCertification._triangular_pairs

    def recording(self, v_row, steps, weight):
        pairs = triangular_pairs(self, v_row, steps, weight)
        recorded.append((steps, pairs))
        return pairs

    monkeypatch.setattr(InnerCertification, "_triangular_pairs", recording)
    inner = inner_h2_certify(spec, spec.zero, box)
    assert inner.result.verdict == CERTIFIED
    ((steps, pairs),) = recorded
    elements = _factors(inner)
    on_rows = _row_steps(inner, elements)
    # The steps are box(1) in weight order, each with the row of
    # [e]^[z-e]; those on a row are factors of W.
    assert [e for e, row in steps if row >= 0] == [elements[k].coords for k in on_rows]
    assert all(e in inner.wedges[row] for e, row in steps if row >= 0)
    assert pairs == [(elements[i].coords, elements[j].coords)
                     for i, j in _triangular_reference(inner, elements, on_rows)]
    assert len(pairs) == seeds
    vecs, leads = [], []
    for u, v in pairs:
        x, e = spec.canonical(list(u)), spec.canonical(list(v))
        vec = _row_vector(inner, _ideal_generator(spec, spec.zero, x, e))
        lead = min(vec)
        # The least row is the column's own row [x+e]^[z-x-e], with +-1.
        assert (x + e).coords in inner.wedges[lead]
        assert vec[lead] in (1, -1)
        vecs.append(vec)
        leads.append(lead)
    # Distinct rows, lightest first; fed first, every one is kept.
    assert leads == sorted(set(leads), reverse=True)
    assert [vec for vec, _ in inner.columns[:len(pairs)]] == vecs


def _record_column_reductions(monkeypatch):
    """Record every vector the column pass reduces against its span (and
    no reduction made outside the pass); returns the list."""
    reduced = []
    in_pass = []
    column_pass = InnerCertification._column_pass
    reduce = _IncrementalSpan.reduce

    def marked_pass(self, *args):
        in_pass.append(True)
        try:
            return column_pass(self, *args)
        finally:
            in_pass.pop()

    def recording_reduce(self, vec):
        if in_pass:
            reduced.append(vec)
        return reduce(self, vec)

    monkeypatch.setattr(InnerCertification, "_column_pass", marked_pass)
    monkeypatch.setattr(_IncrementalSpan, "reduce", recording_reduce)
    return reduced


def test_inner_z2_box12_certifies_from_few_span_inserts(monkeypatch):
    # The all-pairs greedy took 65,414 inserts here, and the unit-step
    # stream alone 4,568 reductions.  The column search reduces each
    # candidate against its span and keeps it only once its witness
    # exists, so the reductions are its inserts: the 309 triangular
    # columns, then the stream's fill.
    inserts = _record_column_reductions(monkeypatch)
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 12)
    assert inner.result.verdict == CERTIFIED
    assert inner.rank == inner.target_rank == 310
    assert 310 <= len(inserts) <= 320


@pytest.mark.parametrize("spec, z, radius", [
    (symplectic_z2(), (0, 0), 12),
    (surface_presentation(1, 2), (0, 0, 0, 0), 3),
    (z2_z2torsion(), (0, 0, 1), 3),
], ids=["z2-box12", "surface12-box3", "torsion-box3"])
def test_inner_box_span_stops_at_the_quotient_dimension(spec, z, radius, monkeypatch):
    # The box generators are projected into Q (x) (H / Zz) only until
    # their rank reaches its dimension; the reported rank is the rank of
    # all of them.
    inserts = []
    insert = _IncrementalSpan.insert

    def counting_insert(self, vec):
        inserts.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(_IncrementalSpan, "insert", counting_insert)
    inner = inner_h2_certify(spec, spec.element(z), radius)
    derived = [x for x in inner.support if x.is_derived_element()]
    full, needed = _IncrementalSpan(), None
    for n, x in enumerate(derived, 1):
        insert(full, dict(enumerate(inner.qspace.proj(x))))
        if needed is None and full.rank == inner.qspace.dim:
            needed = n
    assert inner.result.details["box_generator_image_rank"] == full.rank
    # The f rows are inserted first, one per row of W.
    assert len(inserts) - len(inner.wedges) == (needed or len(derived)) < len(derived)


def test_inner_certifies_z2_box20_and_surface12_radical_gradings():
    z2 = symplectic_z2()
    results = [inner_h2_certify(z2, z2.zero, 20).result]
    s12 = surface_presentation(1, 2)
    radical = [z for z in box_support(s12, 3) if z.in_kernel_mu()]
    assert len(radical) == 7
    results.extend(inner_h2_certify(s12, z, 3).result for z in radical)
    for r in results:
        assert r.verdict == CERTIFIED, r.params
        assert r.details["boundary_rank"] == r.details["kernel_of_f_dim"]


def test_inner_pair_order_tail_certifies_without_unit_steps(monkeypatch):
    # Refuse every pair with a step of box(1); the columns then all come
    # from the _pair_order tail.
    z2 = symplectic_z2()
    steps = {e.coords for e in box_support(z2, 1) if e.is_derived_element()}
    witness_for = verify._generator_witness
    refused = []

    def no_steps(spec, z, u, v, probes):
        if u in steps or v in steps:
            refused.append((u, v))
            return None
        return witness_for(spec, z, u, v, probes)

    monkeypatch.setattr(verify, "_generator_witness", no_steps)
    inner = inner_h2_certify(z2, z2.zero, 4)
    assert refused
    assert inner.result.verdict == CERTIFIED
    for vec, witness in inner.columns:
        assert _row_vector(inner, boundary(_witness_chain(z2, witness))) == vec


def test_inner_keeps_the_exact_span_of_the_integer_columns_when_witnesses_drop(monkeypatch):
    # Withhold the witnesses of the first independent pairs: a pair is
    # kept only once its witness exists, so each drop leaves the span as
    # the integer columns kept so far made it.
    z2 = symplectic_z2()
    witness_for = verify._generator_witness
    dropped = []
    witnessed = []

    def flaky(spec, z, u, v, probes):
        if len(dropped) < 3:
            dropped.append((u, v))
            return None
        witness = witness_for(spec, z, u, v, probes)
        if witness is not None:
            witnessed.append((u, v))
        return witness

    monkeypatch.setattr(verify, "_generator_witness", flaky)
    reduced = _record_column_reductions(monkeypatch)
    inner = inner_h2_certify(z2, z2.zero, 3)
    assert len(dropped) == 3
    assert reduced
    assert all(type(c) is int for vec in reduced for c in vec.values())
    assert inner.result.verdict == CERTIFIED
    # Per pair: every pair is offered at most once, so a dropped pair
    # never builds a column; each column is G of a witnessed pair, and
    # its own witness re-expands to it.  (The same chain may come back
    # from a different pair.)
    offered = [frozenset((u, v)) for u, v in dropped + witnessed]
    assert len(offered) == len(set(offered))
    assert [vec for vec, _ in inner.columns] == [
        _row_vector(inner, _ideal_generator(z2, z2.zero, z2.canonical(u), z2.canonical(v)))
        for u, v in witnessed]
    for vec, witness in inner.columns:
        assert _row_vector(inner, boundary(_witness_chain(z2, witness))) == vec

    # The same drops in plain Fraction elimination pick the same columns.
    del dropped[:], witnessed[:]
    assert [vec for vec, _ in inner.columns] == _reference_columns(inner)


def test_inner_rebuild_on_surface_grading_matches_exact(monkeypatch):
    # surface(1, 2) at z = (0, 0, 0, 2) has independent pairs without a
    # witness in the box, so the drop path runs unpatched.
    s12 = surface_presentation(1, 2)
    z = s12.element([0, 0, 0, 2])
    witness_for = verify._generator_witness
    missing = []

    def counting(spec, z, u, v, probes):
        witness = witness_for(spec, z, u, v, probes)
        if witness is None:
            missing.append((u, v))
        return witness

    monkeypatch.setattr(verify, "_generator_witness", counting)
    inner = inner_h2_certify(s12, z, 2)
    assert missing
    assert inner.result.verdict == CERTIFIED
    assert [vec for vec, _ in inner.columns] == _reference_columns(inner)


# ---------------------------------------------------------------------------
# Inner re-verification is not an assert


# The corruptions of a key witness (scale, keys) that the inner checks
# must catch, as source: the tests below run them in process and, in
# _CORRUPT_WITNESS, under python -O.
_WITNESS_MUTATIONS = """
def doubled_scale(spec, scale, keys):
    # d(keys) = scale G(u, v), which is not 2 scale G(u, v).
    return 2 * scale, keys


def flipped_coefficient(spec, scale, keys):
    keys = dict(keys)
    first = min(keys)
    keys[first] = -keys[first]
    return scale, keys


def key_outside_the_box(spec, scale, keys):
    # A far-away boundary d(Y) leaves d(keys) unchanged, as d(d(Y)) = 0,
    # so only the box check sees it.
    a, b, c = (spec.canonical(x) for x in ([100, 0], [0, 100], [-100, 1]))
    keys = dict(keys)
    for key, k in boundary(wedge_chain(spec, [a, b, c, -a - b - c])).terms.items():
        keys[key] = keys.get(key, 0) + int(k)
    return scale, keys
"""
_MUTATED_IDENTITY = {"doubled_scale": "d(witness) = G(u, v)",
                     "flipped_coefficient": "d(witness) = G(u, v)",
                     "key_outside_the_box": "the witness lies in the boundary box"}


def _witness_mutation(name):
    namespace = {"boundary": boundary, "wedge_chain": wedge_chain}
    exec(_WITNESS_MUTATIONS, namespace)
    return namespace[name]


def _mutate_witnesses(monkeypatch, name):
    """Make every inner key witness go through the named corruption."""
    mutate = _witness_mutation(name)
    witness_for = verify._generator_witness

    def corrupted(spec, z, u, v, probes):
        witness = witness_for(spec, z, u, v, probes)
        return None if witness is None else mutate(spec, *witness)

    monkeypatch.setattr(verify, "_generator_witness", corrupted)


_CORRUPT_WITNESS = _WITNESS_MUTATIONS + """
import json, sys
from goldman import cli, verify
from goldman.complexes import boundary, wedge_chain
from goldman.groups import surface_presentation

if not sys.flags.optimize:
    sys.exit("run with python -O")
spec = surface_presentation(1, 0)
witness_for = verify._generator_witness
entries = {}
for mutate in (doubled_scale, flipped_coefficient, key_outside_the_box):
    def corrupted(spec, z, u, v, probes, mutate=mutate):
        witness = witness_for(spec, z, u, v, probes)
        return None if witness is None else mutate(spec, *witness)

    verify._generator_witness = corrupted
    (entry,) = cli.run_inner_suite(spec, [spec.zero], 2)
    entries[mutate.__name__] = entry.to_dict()
print(json.dumps(entries))
"""


def test_corrupted_inner_witness_is_refuted_under_python_O(tmp_path):
    script = tmp_path / "corrupt.py"
    script.write_text(_CORRUPT_WITNESS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    entries = json.loads(proc.stdout)
    assert set(entries) == set(_MUTATED_IDENTITY)
    for name, entry in entries.items():
        assert entry["verdict"] == "refuted", name
        assert entry["details"] == {"failed_identity": _MUTATED_IDENTITY[name]}


_WRONG_PRIMITIVE = """
import sys
from goldman import verify
from goldman.cli import main

if not sys.flags.optimize:
    sys.exit("run with python -O")
# A wrong primitive: eta([u]^[z-u]) = -3 f(u) + 1.
verify._scaled_primitive = lambda f_num, g: -3 * f_num + g
sys.exit(main(["verify", "--suite", "omega", "--spec", sys.argv[1],
               "--grading", "0,0,1", "--box", "2", "--format", "json"]))
"""


def test_wrong_omega_primitive_is_refuted_under_python_O(tmp_path):
    script = tmp_path / "wrong_primitive.py"
    script.write_text(_WRONG_PRIMITIVE)
    group = tmp_path / "z3.json"
    group.write_text(json.dumps(
        {"generators": 3, "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", str(script), str(group)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    (entry,) = report["results"]
    assert entry["check"] == "omega-class"
    assert entry["verdict"] == "refuted"
    assert entry["details"]["failed_identity"] == "d(eta) = omega"
    assert report["summary"]["certified"] == 0


_CORRUPT_OMEGA_ROWS = """
import json, sys
from goldman import verify
from goldman.cli import main

if not sys.flags.optimize:
    sys.exit("run with python -O")
rows = verify._omega_rows

def dropped(*args):
    kept = rows(*args)
    kept.pop(next(iter(kept)))
    return kept

def flipped(*args):
    kept = rows(*args)
    last = list(kept)[-1]
    kept[last] = -kept[last]
    return kept

mutants = {
    "wrong-n": lambda spec, z, n: rows(spec, z, n - 1),
    "dropped-row": dropped,
    "sign-flip": flipped,
}
out = {}
for name, mutant in mutants.items():
    verify._omega_rows = mutant
    path = sys.argv[2] + "/" + name + ".json"
    code = main(["verify", "--suite", "omega", "--spec", sys.argv[1],
                 "--grading", "0,0,1", "--box", "2", "--format", "json",
                 "--out", path])
    with open(path) as fh:
        out[name] = [code, json.load(fh)]
print(json.dumps(out))
"""


def test_corrupted_omega_closed_form_certificate_is_refuted_under_python_O(tmp_path):
    # On Z^2 + Z/16 at the torsion generator: a wrong ord(z), a dropped
    # row and a sign flip in a row each leave the left side uncancelled.
    script = tmp_path / "corrupt_omega_rows.py"
    script.write_text(_CORRUPT_OMEGA_ROWS)
    group = tmp_path / "z16.json"
    group.write_text(json.dumps({"generators": 3, "relations": [[0, 0, 16]],
                                 "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", str(script), str(group), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout.splitlines()[-1])
    assert set(reports) == {"wrong-n", "dropped-row", "sign-flip"}
    for name, (code, report) in reports.items():
        assert code == 1, name
        (entry,) = report["results"]
        assert entry["check"] == "omega-class"
        assert entry["verdict"] == "refuted", name
        assert entry["details"] == {"failed_identity": "the omega rows cancel on the left"}
        assert report["summary"]["certified"] == 0


_CORRUPT_PROJ = """
import sys
from goldman import verify
from goldman.cli import main

if not sys.flags.optimize:
    sys.exit("run with python -O")
proj = verify.QuotientTensorSpace.proj

def corrupted(self, x):
    # One coordinate off by one: z no longer dies in its own quotient.
    image = proj(self, x)
    return (image[0] + 1,) + image[1:]

verify.QuotientTensorSpace.proj = corrupted
sys.exit(main(["verify", "--suite", "surface", "--surface", "1,2",
               "--box", "1", "--format", "json"]))
"""


def test_corrupted_projection_is_refuted_under_python_O(tmp_path):
    script = tmp_path / "corrupt_proj.py"
    script.write_text(_CORRUPT_PROJ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    (entry,) = report["results"]
    assert entry["check"] == "surface-generators"
    assert entry["verdict"] == "refuted"
    assert entry["details"]["failed_identity"] == "z survived its own quotient"
    assert entry["params"] == {"genus": 1, "boundary_components": 2,
                               "z": [0, 0, 0, 0]}
    assert report["summary"]["certified"] == 0


def test_outer_and_omega_suites_report_failed_identities(monkeypatch):
    z2 = symplectic_z2()
    phi2_keys = ContractingHomotopy.phi2_keys
    monkeypatch.setattr(ContractingHomotopy, "phi2_keys", lambda self, terms: {
        key: 2 * c for key, c in phi2_keys(self, terms).items()})
    (entry,) = cli.run_outer_suite(z2, [z2.element([1, 0])], 1)
    assert entry.verdict == "refuted"
    assert entry.details == {"failed_identity": "d(Phi_2(c)) = c"}
    assert entry.params == {"spec": "Z^2", "z": [1, 0], "box": 1}

    monkeypatch.setattr(verify, "_d_omega", lambda spec, key: 1)
    (entry,) = cli.run_omega_suite(z2, [z2.zero], 2)
    assert entry.verdict == "refuted"
    assert entry.details == {"failed_identity": "d(omega) = 0"}


def test_main_theorem_rechecks_radical_cycles(monkeypatch):
    # The radical wedges are cycles by the radical lemma, proved through
    # the differential: a d_2 that reads nonzero on [u]^[z-u] refutes the
    # grading, although the inner certification reads no d_2.
    s = surface_presentation(1, 2)
    terms = verify._boundary_terms
    monkeypatch.setattr(verify, "_boundary_terms", lambda spec, key: (
        [(1, key[:1])] if len(key) == 2 else terms(spec, key)))
    (entry,) = main_theorem_check(s, [s.element([0, 0, 1, 0])], 1)
    assert (entry.check, entry.verdict) == ("main-theorem", "refuted")
    assert entry.details == {"failed_identity": RADICAL_PAIRING}
    assert entry.params == {"spec": "Z^3", "z": [0, 0, 0, -1], "box": 1,
                            "boundary_box": 3}


def test_main_theorem_refutes_one_grading_and_keeps_the_others(monkeypatch):
    s = surface_presentation(1, 2)
    phi2_keys = ContractingHomotopy.phi2_keys
    monkeypatch.setattr(ContractingHomotopy, "phi2_keys", lambda self, terms: {
        key: 2 * c for key, c in phi2_keys(self, terms).items()})
    radical, derived = s.element([0, 0, 1, 0]), s.element([1, 0, 0, 0])
    inner, outer = main_theorem_check(s, [radical, derived], 1)
    assert (inner.verdict, inner.details["component"]) == ("certified", "inner")
    assert (outer.check, outer.verdict) == ("main-theorem", "refuted")
    assert outer.details == {"failed_identity": "d(Phi_2(c)) = c"}


def test_corrupted_inner_witness_raises_certificate_error(monkeypatch):
    z2 = symplectic_z2()
    _mutate_witnesses(monkeypatch, "doubled_scale")
    with pytest.raises(CertificateError) as info:
        inner_h2_certify(z2, z2.zero, 2)
    assert info.value.identity == "d(witness) = G(u, v)"


def test_flipped_witness_coefficient_raises_certificate_error(monkeypatch):
    z2 = symplectic_z2()
    _mutate_witnesses(monkeypatch, "flipped_coefficient")
    with pytest.raises(CertificateError) as info:
        inner_h2_certify(z2, z2.zero, 2)
    assert info.value.identity == "d(witness) = G(u, v)"


def test_witness_outside_the_boundary_box_raises_certificate_error(monkeypatch):
    z2 = symplectic_z2()
    far = _witness_mutation("key_outside_the_box")(z2, 1, {})[1]
    chain = WedgeChain.from_keys(z2, 3, far)
    assert far and boundary(chain).is_zero()
    _mutate_witnesses(monkeypatch, "key_outside_the_box")
    with pytest.raises(CertificateError) as info:
        inner_h2_certify(z2, z2.zero, 2)
    assert info.value.identity == "the witness lies in the boundary box"


def test_wrong_f_row_raises_certificate_error(monkeypatch):
    # f of the first row of W is off by one; the first kept column that
    # uses that row no longer sums to 0 under f.
    z2 = symplectic_z2()
    calls = []

    def off_on_first_row(qspace, elements):
        got = f_on_ordered(qspace, elements)
        calls.append(elements)
        if len(calls) == 1:
            return (got[0] + 1,) + got[1:]
        return got

    monkeypatch.setattr(verify, "f_on_ordered", off_on_first_row)
    with pytest.raises(CertificateError) as info:
        inner_h2_certify(z2, z2.zero, 2)
    assert info.value.identity == "f(G(u, v)) = 0"


def test_inner_certifies_without_chains_of_g_or_a_column_matrix(monkeypatch):
    # The columns are their integer vectors and their witnesses integer
    # keys: no G(u, v) chain, no chain or Fraction of a witness, and no
    # column matrix is built unless a boundary witness is asked for.  The
    # basis W is its keys: no Wedge is built at all.
    def refuse(*args, **kwargs):
        raise AssertionError("built outside a boundary witness")

    for name in ("_ideal_generator", "SparseRationalMatrix", "WedgeChain",
                 "boundary", "Fraction", "_key_chain"):
        monkeypatch.setattr(verify, name, refuse)
    monkeypatch.setattr(Wedge, "__init__", refuse)
    z2 = symplectic_z2()
    s12 = surface_presentation(1, 2)
    for spec, box in ((z2, 4), (s12, 2)):
        inner = inner_h2_certify(spec, spec.zero, box)
        assert inner.result.verdict == CERTIFIED
        assert inner.rank == inner.target_rank
        assert inner.wedges == sorted(inner.rows, key=inner.rows.get)


def test_boundary_witness_rechecks_the_assembled_chain(monkeypatch):
    z2 = symplectic_z2()
    inner = inner_h2_certify(z2, z2.zero, 2)
    vec, (scale, keys) = inner.columns[0]
    gen = WedgeChain(z2, 2, {inner.wedges[r]: c for r, c in vec.items()})
    assert inner.boundary_witness(gen) is not None
    inner.columns[0] = (vec, (2 * scale, keys))
    with pytest.raises(CertificateError) as info:
        inner.boundary_witness(gen)
    assert info.value.identity == "d(assembled witness) = c"


# ---------------------------------------------------------------------------
# Outer certification


def test_outer_certification_no_corrections():
    for spec, zc in ((symplectic_z2(), [1, 1]),
                     (surface_presentation(1, 2), [0, 1, 0, 0])):
        z = spec.element(zc)
        r = outer_h2_certify(spec, z, 2)
        assert r.verdict == CERTIFIED
        assert r.details["identity"] == "formal"
        assert HOMOTOPY_IDENTITY in r.details["identities"]
        assert "corrections" not in r.details
        assert r.details["h2_dim"] == 0
        assert len(r.details["y_choices"]) == 2
        # One incoming coordinate, so the cycle space misses one dim.
        assert r.details["cycle_dim"] == r.details["wedges"] - 1
        assert_jsonable(r)


def test_outer_witnesses_bound_their_cycles():
    z2 = symplectic_z2()
    r = outer_h2_certify(z2, z2.element([1, 0]), 2)
    for entry in r.details["witnesses"]:
        cycle = WedgeChain(z2, 2)
        for coeff_s, factors in entry["cycle"]:
            cycle = cycle + wedge_chain(
                z2, [z2.canonical(f) for f in factors], Fraction(coeff_s))
        pre = WedgeChain(z2, 3)
        for coeff_s, factors in entry["preimage"]:
            pre = pre + wedge_chain(
                z2, [z2.canonical(f) for f in factors], Fraction(coeff_s))
        assert boundary(pre) == cycle
        assert boundary(cycle).is_zero()


def test_outer_rejects_radical_grading():
    z2 = symplectic_z2()
    with pytest.raises(ValueError):
        outer_h2_certify(z2, z2.zero, 2)


# ---------------------------------------------------------------------------
# Main decomposition


def brute_kernel_pairs(spec, z, radius):
    support = box_support(spec, radius)
    members = set(support)
    count = 0
    for x in support:
        if not x.in_kernel_mu():
            continue
        y = z - x
        if y in members and y.in_kernel_mu() and x < y:
            count += 1
    return count


def test_main_theorem_surface_instance():
    s12 = surface_presentation(1, 2)
    c1 = s12.element([0, 0, 1, 0])
    gradings = [s12.zero, c1, 2 * c1]
    results = main_theorem_check(s12, gradings, 2)
    assert [r.verdict for r in results] == [CERTIFIED] * 3
    for r, z in zip(results, gradings):
        kk = brute_kernel_pairs(s12, z, 2)
        # dim Q (x) (H / Zz): free rank 3, minus one for infinite-order z.
        k = 3 - (0 if z == s12.zero else 1)
        assert r.details["kernel_pairs"] == kk
        assert r.details["quotient_dim"] == k
        assert r.details["h2_dim"] == kk + k
        assert r.details["h2_dim"] == r.details["predicted"]
        assert_jsonable(r)


def test_main_theorem_outer_grading_vanishes():
    z2 = symplectic_z2()
    (r,) = main_theorem_check(z2, [z2.element([1, 0])], 2)
    assert r.verdict == CERTIFIED
    assert r.details["component"] == "outer"
    assert r.details["h2_dim"] == 0


def test_main_theorem_zero_form_not_applicable():
    t = torsion_only()
    (r,) = main_theorem_check(t, [t.zero], 1)
    assert r.verdict == NOT_APPLICABLE
    assert r.details["h2_dim"] > 0
    assert_jsonable(r)


# ---------------------------------------------------------------------------
# The g_K cycle


def test_gk_cycle_z2_instance():
    z2 = symplectic_z2()
    r = gk_cycle_check(z2, z2.element([1, 0]), z2.zero, 3)
    assert r.verdict == CERTIFIED
    assert r.details["factors_in_gk"]
    assert r.details["is_cycle"]
    assert r.details["witness_verified"]
    # The projected difference splits over three gradings.
    assert len(r.details["difference_parts"]) == 3
    assert_jsonable(r)


def test_gk_cycle_witness_re_expands():
    z2 = symplectic_z2()
    u = z2.element([1, 0])
    r = gk_cycle_check(z2, u, z2.zero, 3)
    witness = WedgeChain(z2, 3)
    for coeff_s, factors in r.details["boundary_witness"]:
        witness = witness + wedge_chain(
            z2, [z2.canonical(f) for f in factors], Fraction(coeff_s))
    target = WedgeChain(z2, 2)
    for coeff_s, factors in r.details["projected_chain"]:
        target = target + wedge_chain(
            z2, [z2.canonical(f) for f in factors], Fraction(coeff_s))
    target = target - 6 * wedge_chain(z2, [u, -u])
    assert boundary(witness) == target


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_generator_keys_match_the_chain_and_the_reference(data):
    spec = data.draw(st.sampled_from(spec_pool()))
    n = spec.n_generators
    z, u, v = (spec.canonical(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
               for _ in range(3))
    keys = verify._generator_keys(spec, z.coords, u.coords, v.coords)
    assert keys == _ideal_generator(spec, z, u, v).terms
    assert keys == _reference_chain([(1, [u + v, z - u - v]), (-1, [u, z - u]),
                                     (-1, [v, z - v])])
    assert all(type(c) is int and c for c in keys.values())


def test_gk_cycle_other_base_points():
    s12 = surface_presentation(1, 2)
    c1 = s12.element([0, 0, 1, 0])
    r = gk_cycle_check(s12, s12.element([1, 0, 0, 0]), c1, 2)
    assert r.verdict == CERTIFIED


def test_gk_cycle_without_the_probe_witness_is_inconclusive(monkeypatch):
    # The radical-grading part has no other witness: no span search runs,
    # and the entry is inconclusive instead of certified.
    def no_span_search(*args):
        raise AssertionError("gk_cycle_check ran an inner span search")

    monkeypatch.setattr(verify, "_generator_witness", lambda *args: None)
    monkeypatch.setattr(verify, "inner_h2_certify", no_span_search)
    z2 = symplectic_z2()
    r = gk_cycle_check(z2, z2.element([1, 0]), z2.zero, 3)
    assert (r.check, r.verdict) == ("gk-cycle", INCONCLUSIVE)
    assert r.details["note"] == "no boundary witness for the radical-grading part"
    assert r.details["factors_in_gk"] and r.details["is_cycle"]


# ---------------------------------------------------------------------------
# Surface generator classes


def test_surface_generator_check_2_3():
    r = surface_generator_check(2, 3)
    assert r.verdict == CERTIFIED
    assert r.details["image_rank"] == 6
    assert r.details["spans"]
    assert len(r.details["decompositions"]) == 3
    for entry in r.details["decompositions"]:
        assert entry["ideal_member"]
        assert len(entry["ideal_witness"]) == 1
        assert entry["derived_difference_bounds"]
    assert_jsonable(r)


def test_surface_generator_check_1_2():
    r = surface_generator_check(1, 2)
    assert r.verdict == CERTIFIED
    assert r.details["image_rank"] == 3


def _reference_chain(terms):
    """{key: Fraction} of a sum of coeff [f_1] ^ ... ^ [f_p] terms, signs
    and repeats through the conftest reference."""
    out = {}
    for coeff, factors in terms:
        sign, key = reference_normalize(factors)
        if sign:
            out[key] = out.get(key, 0) + sign * Fraction(coeff)
    return {k: v for k, v in out.items() if v}


def test_surface_generator_witnesses_re_expand():
    # Every witness is re-expanded through the conftest reference, for
    # genus 1 to 3 with 0 to 3 boundary circles.
    for g, r in itertools.product((1, 2, 3), range(4)):
        _check_surface_witnesses(g, r)


def _check_surface_witnesses(g, r):
    spec = surface_presentation(g, r)
    gens = spec.generators()
    a, b = gens[2 * g - 2], gens[2 * g - 1]
    result = surface_generator_check(g, r)
    assert result.verdict == CERTIFIED
    assert result.params == {"genus": g, "boundary_components": r,
                             "z": [0] * spec.n_generators}
    assert result.details["image_rank"] == result.details["space_dim"] == (
        2 * g + max(r - 1, 0))
    decompositions = result.details["decompositions"]
    assert [e["class"] for e in decompositions] == list(spec.names[2 * g:])
    for c, entry in zip(gens[2 * g:], decompositions):
        assert entry["ideal_member"] and entry["derived_difference_bounds"]
        ((coeff, uc, vc),) = entry["ideal_witness"]
        u, v = spec.canonical(uc), spec.canonical(vc)
        assert _reference_chain([(coeff, [u + v, -u - v]), (-1, [u, -u]),
                                 (-1, [v, -v])]) == _reference_chain(
            [(1, [c, -c]), (-1, [c - a, a - c]), (-1, [a, -a])])
        assert len(entry["boundary_witness"]) == 2
        d_witness = {}
        for coeff, factors in entry["boundary_witness"]:
            image = reference_boundary(
                spec, [spec.canonical(f) for f in factors], Fraction(coeff))
            for key, value in image.items():
                d_witness[key] = d_witness.get(key, 0) + value
        assert {k: v for k, v in d_witness.items() if v} == _reference_chain(
            [(1, [c - a, a - c]), (1, [a, -a]), (-1, [c - b, b - c]), (-1, [b, -b])])


def test_surface_check_runs_no_column_search_or_ideal_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the surface check ran a search")

    for name in ("inner_h2_certify", "InnerCertification", "ideal_membership",
                 "SparseRationalMatrix"):
        monkeypatch.setattr(verify, name, forbidden)
    assert surface_generator_check(2, 3).verdict == CERTIFIED


@pytest.mark.parametrize("target, identity", [
    ("_generator_keys", "the decomposition is G(C_j - A_g, A_g)"),
    ("_key_boundary", "d(boundary witness) = derived difference"),
])
def test_surface_closed_forms_are_rechecked(target, identity, monkeypatch):
    original = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args: {
        key: 2 * c for key, c in original(*args).items()})
    with pytest.raises(CertificateError) as info:
        surface_generator_check(2, 3)
    assert info.value.identity == identity


# ---------------------------------------------------------------------------
# Linear extension


def test_linear_extension_z2():
    z2 = symplectic_z2()
    r = linear_extension_check(z2, 2)
    assert r.verdict == CERTIFIED
    assert r.details["identity"] == "formal"
    assert len(r.details["identities"]) == 4
    assert_jsonable(r)


def test_linear_extension_refutes_an_undetected_negative_control(monkeypatch):
    # If bumping f at u went unnoticed, the check would have no power.
    monkeypatch.setattr(verify.GroupElement, "__eq__", lambda self, other: False)
    with pytest.raises(CertificateError) as info:
        linear_extension_check(symplectic_z2(), 2)
    assert info.value.identity == "a functional bumped at u is not additive (negative control)"


@pytest.mark.parametrize("corruption, identity", [
    (lambda x: x[0] ** 2, "f(u+v) = f(u) + f(v)"),
    (lambda x: 1, "f(u+v) = f(u) + f(v)"),
])
def test_linear_extension_refutes_a_nonadditive_functional(corruption, identity, monkeypatch):
    # Symbolic coordinates see a non-additive term that basis symbols
    # would miss; the failure names the identity.
    functional = verify._integer_functional
    monkeypatch.setattr(verify, "_integer_functional", lambda spec, coeffs: (
        lambda x: functional(spec, coeffs)(x) + corruption(x)))
    with pytest.raises(CertificateError) as info:
        linear_extension_check(symplectic_z2(), 2)
    assert info.value.identity == identity


def test_linear_extension_negation_identity_is_checked(monkeypatch):
    # Wrong at -u only: additivity and the probe steps never evaluate f
    # there, so the negation identity is the one that fails.
    minus_u = tuple(-Poly.var("u%d" % j) for j in range(2))
    functional = verify._integer_functional
    monkeypatch.setattr(verify, "_integer_functional", lambda spec, coeffs: (
        lambda x, f=functional(spec, coeffs): f(x) + (7 if x == minus_u else 0)))
    with pytest.raises(CertificateError) as info:
        linear_extension_check(symplectic_z2(), 2)
    assert info.value.identity == "f(-u) = f(x) - f(u+x)"


def test_linear_extension_params_do_not_depend_on_the_verdict():
    # A zero form has no derived element: the not-applicable entry names
    # the same instance as a certified one.
    flat = surface_presentation(0, 2)
    na = linear_extension_check(flat, 2)
    ok = linear_extension_check(z3_rank2_form(), 2)
    assert (na.verdict, ok.verdict) == (NOT_APPLICABLE, CERTIFIED)
    assert na.params == {"spec": "Z", "box": 2}
    assert set(na.params) == set(ok.params)


def test_main_theorem_params_do_not_depend_on_the_form():
    # Every main-theorem entry names its grading, cycle box and boundary
    # box, the zero-form (not-applicable) ones included.
    flat = surface_presentation(0, 2)
    (na,) = main_theorem_check(flat, [flat.zero], 1)
    z2 = symplectic_z2()
    inner, outer = main_theorem_check(z2, [z2.zero, z2.element([1, 0])], 1)
    assert na.verdict == NOT_APPLICABLE and na.details["h2_dim"] == 1
    assert na.params == {"spec": "Z", "z": [0, 0], "box": 1, "boundary_box": 3}
    assert set(na.params) == set(inner.params) == set(outer.params)


def test_linear_extension_deterministic():
    # Formal, so the details are the same for every group and box.
    spec = z3_rank2_form()
    a = linear_extension_check(spec, 2)
    b = linear_extension_check(spec, 2)
    assert a.to_dict() == b.to_dict()
    assert linear_extension_check(z2_z2torsion(), 3).details == a.details


# ---------------------------------------------------------------------------
# The omega class


def test_omega_cocycle_value_and_closedness():
    zt = z2_z2torsion()
    z = zt.element([0, 0, 1])
    omega = omega_cocycle(zt, z)
    u = zt.element([1, 0, 0])
    v = zt.element([0, 1, 0])
    w = z - u - v
    c = wedge_chain(zt, [u, v, w])
    ((key, sign),) = c.terms.items()
    # omega reads the pairing of the first two stored factors.
    assert omega.value(key) == zt.pairing(zt.canonical(list(key[0])), zt.canonical(list(key[1])))
    with pytest.raises(ValueError):
        omega_cocycle(zt, zt.element([1, 0, 0]))


def test_omega_torsion_grading_class_nonzero():
    z16 = GroupSpec(3, relations=[[0, 0, 16]], form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    for spec, radius, order in ((z2_z2torsion(), 3, 2), (z16, 2, 16)):
        z = spec.element([0, 0, 1])
        r = omega_check(spec, z, radius)
        assert r.verdict == CERTIFIED
        assert r.details["z_is_torsion"]
        cert = r.details["certificate"]
        # The closed form: two R rows and two D-differences, and one
        # D-difference per multiple of z, each of two rows.
        assert len(cert) == 2 * order + 6
        # Re-multiply the certificate against rebuilt rows: sum of
        # coeff * row must vanish while the right-hand side does not.
        total = {}
        rhs = Fraction(0)
        for coeff_s, uc, vc in cert:
            coeff = Fraction(coeff_s)
            u, v = spec.canonical(uc), spec.canonical(vc)
            assert spec.pairing(u, v) != 0
            assert len({u, v, z - u - v}) == 3
            rhs += coeff * Fraction(-1)
            for x, outer_sign in ((u + v, 1), (u, -1), (v, -1)):
                chain = wedge_chain(spec, [x, z - x])
                if chain.is_zero():
                    continue
                ((w, sign),) = chain.terms.items()
                acc = total.get(w, 0) + coeff * outer_sign * sign
                if acc:
                    total[w] = acc
                else:
                    total.pop(w, None)
        assert not total
        assert rhs == -2
        assert_jsonable(r)


def test_omega_origin_grading_class_nonzero():
    z2 = symplectic_z2()
    r = omega_check(z2, z2.zero, 2)
    assert r.verdict == CERTIFIED
    assert r.details["z_is_torsion"]


def test_omega_free_grading_primitive():
    z3 = z3_rank2_form()
    z = z3.element([0, 0, 1])
    r = omega_check(z3, z, 3)
    assert r.verdict == CERTIFIED
    assert not r.details["z_is_torsion"]
    # f = x_2 takes z to 1; both identities are proved over symbols, and
    # nothing in the entry depends on the box.
    assert r.details["primitive"]["f_numerators"] == [0, 0, 1]
    assert r.details["primitive"]["f_denominator"] == 1
    assert r.details["identity"] == "formal"
    assert r.details["identities"][-2:] == ["d(omega) = 0", "d(eta) = omega"]
    assert omega_check(z3, z, 1).details == r.details
    assert_jsonable(r)


def test_omega_rejects_derived_grading():
    z2 = symplectic_z2()
    with pytest.raises(ValueError):
        omega_check(z2, z2.element([1, 0]), 2)


def test_capped_radius_bisects_to_the_largest_fitting_box():
    for spec in (symplectic_z2(), z2_z2torsion(), torsion_only(), surface_presentation(2, 3)):
        for radius in (0, 1, 2, 5, 40):
            for cap in (1, 9, 100, 1200, 20000):
                r = radius
                while r > 1 and verify._box_size(spec, r) > cap:
                    r -= 1
                assert verify._capped_radius(spec, radius, cap) == r


# ---------------------------------------------------------------------------
# First homology


def test_h1_dimensions_z2():
    z2 = symplectic_z2()
    r = h1_check(z2, 2, None)
    assert r.verdict == CERTIFIED
    per = r.details["per_grading"]
    assert len(per) == 25
    ones = [e for e in per if e["dim"] == 1]
    assert len(ones) == 1 and ones[0]["z"] == [0, 0]
    assert all(e["dim"] == e["expected"] for e in per)
    assert_jsonable(r)


def test_h1_dimensions_surface():
    s12 = surface_presentation(1, 2)
    r = h1_check(s12, 2, None)
    per = r.details["per_grading"]
    assert len(per) == 125
    kernel_zs = sum(1 for e in per if e["dim"] == 1)
    brute = sum(1 for x in box_support(s12, 2) if x.in_kernel_mu())
    assert kernel_zs == brute == 5
    assert all(e["dim"] == e["expected"] for e in per)


def test_h1_preimages_re_expand():
    z2 = symplectic_z2()
    units = {x.coords for x in box_support(z2, 1)}
    r = h1_check(z2, 1, None)
    for e in r.details["per_grading"]:
        if e["dim"] == 0:
            z = z2.canonical(e["z"])
            pre = WedgeChain(z2, 2)
            for coeff_s, factors in e["preimage"]:
                # One wedge [u]^[z-u], with its factor u in box(1).
                assert any(tuple(f) in units for f in factors)
                pre = pre + wedge_chain(
                    z2, [z2.canonical(f) for f in factors], Fraction(coeff_s))
            assert len(e["preimage"]) == 1
            assert boundary(pre) == wedge_chain(z2, [z])
