"""Group presentations, Smith normal form, canonical element arithmetic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from goldman.groups import (
    GroupSpec,
    smith_normal_form,
    surface_presentation,
    _determinant,
    _identity,
    _mat_mul,
)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_hand_oracle():
    # det = -8, gcd of entries 2, so invariant factors (2, 4).
    snf = smith_normal_form([[2, 4], [6, 8]])
    assert snf.diagonal == (2, 4)
    assert snf.validate()


def test_snf_identity_and_zero():
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([], n_cols=3).diagonal == (0, 0, 0)


def test_snf_rectangular():
    snf = smith_normal_form([[0, 0, 2]])
    assert snf.diagonal == (2, 0, 0)
    assert snf.validate()
    tall = smith_normal_form([[3], [6], [5]])
    assert tall.diagonal == (1,)
    assert tall.validate()


def test_snf_empty_matrix_needs_width():
    with pytest.raises(ValueError):
        smith_normal_form([])


def test_snf_matches_sympy_oracle():
    # Independent oracle for the invariant factors on random matrices.
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        ours = smith_normal_form(rows)
        assert ours.validate()
        theirs = sympy_snf(Matrix(rows))
        want = [abs(theirs[i, i]) for i in range(min(m, n))]
        got = [d for d in ours.diagonal[: min(m, n)]]
        # sympy may order zero factors differently; compare multisets of
        # nonzero factors and the zero count.
        assert sorted(v for v in want if v) == sorted(v for v in got if v)
        assert want.count(0) == got.count(0)


@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_snf_decomposition_exact(rows):
    snf = smith_normal_form(rows)
    assert snf.validate()
    prod = _mat_mul(_mat_mul(snf.U, rows), snf.V)
    assert prod == snf.D


@given(st.lists(st.lists(st.integers(-20, 20), min_size=4, max_size=4),
                min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_snf_v_inv_inverts_v(rows):
    snf = smith_normal_form(rows, n_cols=4)
    assert _mat_mul(snf.V, snf.V_inv) == _identity(4)
    assert _mat_mul(snf.V_inv, snf.V) == _identity(4)


def test_snf_validate_rejects_a_corrupted_v_inv():
    snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert snf.validate()
    snf.V_inv[0][0] += 1
    with pytest.raises(AssertionError, match="V V_inv"):
        snf.validate()


def test_determinant_and_inverse():
    assert _determinant([[2, 1], [1, 1]]) == 1
    assert _determinant([[1, 2], [3, 4]]) == -2
    assert _determinant([]) == 1


# ---------------------------------------------------------------------------
# GroupSpec validation


def symplectic_z2():
    return GroupSpec(2, form=[[0, 1], [-1, 0]])


def z2_z2torsion():
    # Z^2 (symplectic) + Z/2 generated by the third generator.
    return GroupSpec(3, relations=[[0, 0, 2]],
                     form=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_rejects_non_alternating_form():
    with pytest.raises(ValueError, match="alternating"):
        GroupSpec(2, form=[[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="alternating"):
        GroupSpec(2, form=[[0, 1], [1, 0]])


def test_rejects_non_descending_form():
    # Relation kills 2x but x pairs with y: pairing cannot descend.
    with pytest.raises(ValueError, match="descend"):
        GroupSpec(2, relations=[[2, 0]], form=[[0, 1], [-1, 0]])


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GroupSpec(0)
    with pytest.raises(ValueError):
        GroupSpec(2, relations=[[1]])
    with pytest.raises(ValueError):
        GroupSpec(2, form=[[0], [0]])


@pytest.mark.parametrize("bad", [1.5, 2.7, True, 2.0])
def test_rejects_non_integer_entries(bad):
    # Each entry used to be truncated through int(): a form entry of 1.5
    # became 1 and a relation of 2.7 became Z/2.
    with pytest.raises(ValueError, match="must be an integer"):
        GroupSpec(2, form=[[0, bad], [-1, 0]])
    with pytest.raises(ValueError, match="must be an integer"):
        GroupSpec(2, relations=[[bad, 0]])
    with pytest.raises(ValueError, match="must be an integer"):
        GroupSpec(bad)


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_elements_reject_non_integer_coordinates(bad):
    # A non-int coordinate raises; it is neither kept nor truncated.
    spec = GroupSpec(2, form=[[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="must be an integer"):
        spec.element([bad, 0])
    with pytest.raises(ValueError, match="must be an integer"):
        spec.canonical([0, bad])


def test_torsion_classification():
    spec = z2_z2torsion()
    assert spec.free_rank == 2
    assert spec.torsion_coefficients == (2,)
    t = spec.element([0, 0, 1])
    assert t.is_torsion()
    assert t.in_kernel_mu()
    assert (t + t) == spec.zero
    assert (t + t).coords == spec.zero.coords


def test_trivial_group():
    spec = GroupSpec(1, relations=[[1]])
    assert spec.describe()["group"] == "0"
    assert spec.element([5]) == spec.zero


# ---------------------------------------------------------------------------
# Element arithmetic and the pairing


def test_element_arithmetic_canonical():
    spec = z2_z2torsion()
    x = spec.element([1, 2, 3])
    assert x.coords[spec.torsion_indices[0]] in (0, 1)
    assert (x - x) == spec.zero
    assert (-1 * x) == -x
    assert 2 * x == x + x


def test_sub_coords_is_subtraction():
    rng = random.Random(4)
    for spec in (z2_z2torsion(), surface_presentation(2, 3)):
        for _ in range(50):
            x, y = (spec.canonical([rng.randint(-4, 4) for _ in range(spec.n_generators)])
                    for _ in range(2))
            assert spec.sub_coords(x.coords, y.coords) == (x - y).coords


# The loop forms of the coordinate kernels: the references the generated
# straight-line functions must agree with.


def reference_add(spec, a, b):
    total = [x + y for x, y in zip(a, b)]
    for j, d in spec.torsion:
        total[j] %= d
    return tuple(total)


def reference_sub(spec, a, b):
    total = [x - y for x, y in zip(a, b)]
    for j, d in spec.torsion:
        total[j] %= d
    return tuple(total)


def reference_pair(spec, a, b):
    total = 0
    for i, j, w in spec._pair_entries:
        total += w * (a[i] * b[j] - a[j] * b[i])
    return total


KERNEL_SPECS = {
    "Z2": symplectic_z2(),
    "Z2+Z/2": z2_z2torsion(),
    "Z/3+Z": GroupSpec(2, relations=[[3, 0]]),
    "Z/3+Z2 with form": GroupSpec(3, relations=[[0, 0, 3]],
                                  form=[[0, 2, 0], [-2, 0, 0], [0, 0, 0]]),
    "Z/2+Z/6 mixed": GroupSpec(3, relations=[[2, 4, 0], [6, 6, 0]],
                               form=[[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    "surface(2,3)": surface_presentation(2, 3),
    "scaled blocks": GroupSpec(4, form=[[0, 2, 0, 0], [-2, 0, 0, 0],
                                        [0, 0, 0, -3], [0, 0, 3, 0]]),
    "zero form": GroupSpec(3, relations=[[0, 2, 0]]),
    "rank 1": GroupSpec(1),
}


@given(st.sampled_from(sorted(KERNEL_SPECS)), st.data())
@settings(max_examples=300, deadline=None)
def test_generated_kernels_match_the_loops(name, data):
    spec = KERNEL_SPECS[name]
    n = spec.n_generators
    a, b = (spec.canonical(data.draw(st.lists(st.integers(-9, 9), min_size=n,
                                              max_size=n))).coords
            for _ in range(2))
    assert spec.add_coords(a, b) == reference_add(spec, a, b)
    assert spec.sub_coords(a, b) == reference_sub(spec, a, b)
    assert spec.pair_coords(a, b) == reference_pair(spec, a, b)
    assert type(spec.pair_coords(a, b)) is int


def test_kernel_specs_cover_their_cases():
    specs = KERNEL_SPECS
    assert specs["Z/3+Z"].torsion_coefficients == (3,)
    assert specs["Z/2+Z/6 mixed"].torsion_coefficients == (2, 6)
    assert specs["surface(2,3)"].dead_indices
    assert {w for _, _, w in specs["surface(2,3)"]._pair_entries} == {1, -1}
    assert {abs(w) for _, _, w in specs["scaled blocks"]._pair_entries} == {2, 3}
    assert specs["zero form"].mu_is_zero() and specs["rank 1"].n_generators == 1


def test_pairing_oracle_symplectic():
    spec = symplectic_z2()
    x, y = spec.generators()
    assert spec.pairing(x, y) == 1
    assert spec.pairing(y, x) == -1
    assert spec.pairing(x, x) == 0
    assert spec.pairing(3 * x + 2 * y, x - y) == -3 - 2


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
       st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
@settings(max_examples=80, deadline=None)
def test_pairing_bilinear_alternating(a1, a2, b1, b2, c1, c2):
    spec = symplectic_z2()
    x = spec.element([a1, a2])
    y = spec.element([b1, b2])
    z = spec.element([c1, c2])
    assert spec.pairing(x + y, z) == spec.pairing(x, z) + spec.pairing(y, z)
    assert spec.pairing(x, y) == -spec.pairing(y, x)
    assert spec.pairing(x, x) == 0


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_pairing_well_defined_on_torsion(a, b, t):
    # Changing a representative by the relation lattice keeps the pairing.
    spec = z2_z2torsion()
    x = spec.element([a, b, t])
    x_shifted = spec.element([a, b, t + 2])
    assert x == x_shifted
    for y in spec.generators():
        assert spec.pairing(x, y) == spec.pairing(x_shifted, y)


def test_kernel_mu():
    spec = z2_z2torsion()
    gens = spec.generators()
    assert not gens[0].in_kernel_mu()
    assert not gens[1].in_kernel_mu()
    assert gens[2].in_kernel_mu()
    kernel = spec.kernel_basis
    assert all(k.in_kernel_mu() for k in kernel)
    # ker mu here is exactly the torsion summand.
    assert len(kernel) == 1


def test_kernel_basis_surface():
    s = surface_presentation(1, 2)
    kernel = s.kernel_basis
    assert len(kernel) == 1
    assert kernel[0].in_kernel_mu()
    c1 = s.generators()[2]
    assert c1.in_kernel_mu()
    # C1 generates the radical here, so it is an integer multiple of the basis.
    assert c1 == kernel[0] or c1 == -kernel[0]


# ---------------------------------------------------------------------------
# Surface presentations


def test_surface_genus1_closed():
    s = surface_presentation(1, 0)
    assert s.describe() == {
        "free_rank": 2,
        "torsion": [],
        "group": "Z^2",
        "kernel_mu_generators": [],
        "form_is_zero": False,
    }


def test_surface_g1_r2():
    s = surface_presentation(1, 2)
    assert s.free_rank == 3
    a, b, c1, c2 = s.generators()
    assert s.pairing(a, b) == 1
    assert s.pairing(a, c1) == 0
    assert c1 + c2 == s.zero
    assert c1.in_kernel_mu() and c2.in_kernel_mu()


def test_surface_g2_r3():
    s = surface_presentation(2, 3)
    assert s.free_rank == 6
    gens = s.generators()
    assert len(gens) == 7
    c1, c2, c3 = gens[4:]
    assert c1 + c2 + c3 == s.zero
    assert len(s.kernel_basis) == 2
    assert s.names == ("A1", "B1", "A2", "B2", "C1", "C2", "C3")


def test_surface_degenerate_cases():
    with pytest.raises(ValueError):
        surface_presentation(0, 0)
    s = surface_presentation(0, 1)
    assert s.describe()["group"] == "0"
    assert surface_presentation(0, 2).free_rank == 1


def test_element_ordering_deterministic():
    spec = symplectic_z2()
    xs = [spec.element([i, j]) for i in range(-2, 3) for j in range(-2, 3)]
    once = sorted(xs)
    twice = sorted(reversed(xs))
    assert once == twice
    assert spec.element([0, 1]).sort_key() < spec.element([1, 1]).sort_key()
