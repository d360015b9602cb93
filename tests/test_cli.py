"""Tests for the command-line front end.

Everything runs through goldman.cli.main in process; reports land in
tmp_path files or captured stdout.  Oracles are the library-level dims
already pinned in test_verify.py.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import time

import pytest

from goldman import algebra, cli, complexes, groups, verify
from goldman.cli import main, resolve_selection
from goldman import box_support, surface_presentation

from conftest import (D3_SIGN_FLIPS, D4_SIGN_FLIPS, HOMOTOPY_COEFFICIENTS, HOMOTOPY_IDENTITY,
                      INNER_IDENTITIES, INNER_MUTANTS, LEMMA_MUTANTS, OMEGA_MUTANTS,
                      OUTER_MUTANTS, RADICAL_PAIRING, outer_mutant,
                      source_mutant, symplectic_z2, torsion_only, z2_z2torsion, z3_rank2_form)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# ---------------------------------------------------------------------------
# Spec loading and validate


def test_validate_surface_text(capsys):
    code, out, err = run(capsys, "validate", "--surface", "1,0")
    assert code == 0 and err == ""
    assert "group: Z^2" in out
    assert "form nondegenerate" in out


def test_validate_file_with_torsion(tmp_path, capsys):
    path = write_spec(tmp_path, "g.json", {
        "generators": 3,
        "relations": [[0, 0, 2]],
        "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    })
    code, out, _ = run(capsys, "validate", "--spec", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["group"]["group"] == "Z^2 + Z/2"
    assert report["group"]["torsion"] == [2]


def test_validate_surface_shorthand_file(tmp_path, capsys):
    path = write_spec(tmp_path, "s.json", {"surface": {"genus": 1, "boundary": 2}})
    code, out, _ = run(capsys, "validate", "--spec", path)
    assert code == 0
    assert "group: Z^3" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_out_writes_the_stdout_report(tmp_path, capsys, fmt):
    code, printed, _ = run(capsys, "validate", "--surface", "1,2", "--format", fmt)
    assert code == 0
    out = tmp_path / "report"
    code, notice, _ = run(capsys, "validate", "--surface", "1,2", "--format", fmt,
                          "--out", str(out))
    assert code == 0
    assert notice == "report written to %s\n" % out
    assert out.read_text() == printed


@pytest.mark.parametrize("argv", [
    ["validate", "--surface", "1,0"],
    ["verify", "--surface", "1,0", "--box", "1"],
], ids=["validate", "verify"])
def test_an_unwritable_out_path_is_an_error(argv, tmp_path, capsys):
    # The report file cannot be opened: one error line, no traceback,
    # nothing on stdout, exit 1.
    path = str(tmp_path / "missing" / "r.json")
    code, out, err = run(capsys, *argv, "--out", path)
    assert (code, out) == (1, "")
    assert err == "error: cannot write %s: No such file or directory\n" % path
    assert not os.path.exists(path)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--surface", "2,3", "--box", "2"],
    ["homology", "--surface", "1,2", "--box", "3"],
], ids=["verify", "homology"])
def test_an_unwritable_out_path_fails_before_any_suite_runs(argv, monkeypatch, tmp_path,
                                                            capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran before --out was opened")

    for name in ["run_%s_suite" % suite for suite in cli.SUITES] + ["main_theorem_check"]:
        monkeypatch.setattr(cli, name, refuse)
    path = str(tmp_path / "missing" / "r.json")
    code, out, err = run(capsys, *argv, "--out", path)
    assert (code, out) == (1, "")
    assert err == "error: cannot write %s: No such file or directory\n" % path


def test_validate_takes_no_grading(capsys):
    code, out, err = run(capsys, "validate", "--surface", "1,0", "--grading", "x;y;z")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --grading" in err


def test_validate_rejects_nonalternating_form(tmp_path, capsys):
    path = write_spec(tmp_path, "bad.json", {
        "generators": 2, "form": [[1, 0], [0, 0]]})
    code, _, err = run(capsys, "validate", "--spec", path)
    assert code == 1
    assert "not alternating" in err


def test_validate_rejects_nondescending_relation(tmp_path, capsys):
    path = write_spec(tmp_path, "bad.json", {
        "generators": 2, "relations": [[1, 0]],
        "form": [[0, 1], [-1, 0]]})
    code, _, err = run(capsys, "validate", "--spec", path)
    assert code == 1
    assert "does not descend" in err and "row 0" in err


@pytest.mark.parametrize("payload, path", [
    ({"generators": 2, "form": [[0, 1.5], [-1.5, 0]]}, "form[0][1]"),
    ({"generators": True, "form": [[0, 1], [-1, 0]]}, "generators"),
    ({"generators": 2, "relations": [[2.7, 0]],
      "form": [[0, 0], [0, 0]]}, "relations[0][0]"),
    ({"generators": 2, "form": [[0, True], [-1, 0]]}, "form[0][1]"),
    ({"generators": 2.0}, "generators"),
    ({"surface": {"genus": 1.5, "boundary": 0}}, "surface.genus"),
])
def test_non_integer_group_entries_are_rejected(tmp_path, capsys, payload, path):
    spec = write_spec(tmp_path, "g.json", payload)
    code, out, err = run(capsys, "verify", "--suite", "h1", "--spec", spec)
    assert code == 1
    assert out == ""
    assert "error: %s must be an integer" % path in err


@pytest.mark.parametrize("payload, message", [
    # A typo for "relations" must not validate as Z^3.
    ({"generators": 3, "relation": [[0, 0, 2]],
      "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]},
     'unknown key "relation" in the group file'),
    ({"surface": {"genus": 1, "boundary": 0, "boundaries": 2}},
     'unknown key "boundaries" in surface'),
    ({"generators": 2, "names": 5},
     "names must be a list of strings, got 5"),
    ({"generators": 2, "names": ["a", 2]},
     "names[1] must be a string, got 2"),
    # The shorthand must not silently win over a presentation beside it.
    ({"surface": {"genus": 1, "boundary": 0}, "generators": 5,
      "relations": [[0, 2]]},
     'surface shorthand stands alone; drop "generators"'),
], ids=["top-level-key", "surface-key", "names-not-a-list", "name-not-a-string",
        "surface-beside-generators"])
def test_malformed_group_files_are_rejected(tmp_path, capsys, payload, message):
    spec = write_spec(tmp_path, "g.json", payload)
    code, out, err = run(capsys, "validate", "--spec", spec)
    assert code == 1
    assert out == ""
    assert "error: %s" % message in err


def test_validate_reports_parse_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"generators": 2,\n  oops}')
    code, _, err = run(capsys, "validate", "--spec", str(p))
    assert code == 1
    assert "parse error" in err and "line 2" in err


def test_spec_source_is_required_and_exclusive(tmp_path, capsys):
    code, _, err = run(capsys, "validate")
    assert code == 1 and "required" in err
    path = write_spec(tmp_path, "g.json", {"generators": 1})
    code, _, err = run(capsys, "validate", "--spec", path, "--surface", "1,0")
    assert code == 1 and "not both" in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope", "--surface", "1,0")
    assert code == 1
    assert "invalid choice" in err
    code, _, err = run(capsys, "validate", "--surface", "1")
    assert code == 1
    code, _, err = run(capsys, "validate", "--surface", "1,0", "--box", "0")
    assert code == 1 and "at least 1" in err


@pytest.mark.parametrize("command", ["verify", "homology"])
def test_a_box_over_the_budget_exits_one_at_once(command, capsys):
    # --box 10 on Z^6 asks for 21^6 elements; nothing is enumerated.
    start = time.monotonic()
    code, out, err = run(capsys, command, "--surface", "3,1", "--box", "10")
    assert time.monotonic() - start < 2.0
    assert code == 1 and out == ""
    assert "85766121 elements, over the budget of 1000000" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "inner"),
    ("verify", "--suite", "outer"),
    ("verify", "--suite", "surface"),
    ("homology",),
])
def test_a_box_over_the_budget_exits_one_at_once_with_explicit_gradings(argv, capsys):
    # No suite builds the box for explicit gradings, so the budget is
    # checked before any of them runs.
    start = time.monotonic()
    code, out, err = run(capsys, *argv, "--surface", "1,0", "--grading", "0,0",
                         "--box", "10000000")
    assert time.monotonic() - start < 2.0
    assert code == 1 and out == ""
    assert "400000040000001 elements, over the budget of 1000000" in err


def test_enlarge_is_a_usage_error(capsys):
    # h1 reads the requested box and box(1) only, so there is no
    # enlarged box to ask for.
    code, out, err = run(capsys, "verify", "--suite", "h1", "--surface", "1,0",
                         "--box", "1", "--enlarge", "3", "--format", "json")
    assert code == 1 and out == ""
    assert "--enlarge" in err


# ---------------------------------------------------------------------------
# Grading selection


def test_grading_vectors_parse_and_echo(capsys):
    code, out, _ = run(capsys, "homology", "--surface", "1,0", "--box", "2",
                       "--grading", "0,0;1,0", "--grading", "1,1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["gradings"] == [[0, 0], [1, 0], [1, 1]]
    assert len(report["table"]) == 3


@pytest.mark.parametrize("token", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
def test_integer_tokens_that_int_reads_loosely_are_refused(token, capsys):
    # int() reads "1_0" as 10 and U+0661 as 1; both flags take only an
    # optional sign and ASCII digits, and name the token they refuse.
    assert int(token) in (10, 1)
    vector = "%s,0" % token
    code, out, err = run(capsys, "homology", "--surface", "1,0", "--box", "1",
                         "--grading", vector)
    assert (code, out) == (1, "")
    assert err == "error: bad grading vector %r: %r is not an integer\n" % (vector, token)
    code, out, err = run(capsys, "validate", "--surface", vector)
    assert (code, out) == (1, "")
    assert err == "error: --surface expects two integers 'g,r': %r is not an integer\n" % token
    # A sign and surrounding blanks are still accepted.
    code, out, _ = run(capsys, "homology", "--surface", " +1 , 0", "--box", "1",
                       "--grading", " -1 ,+0", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["gradings"] == [[-1, 0]]


def test_grading_width_checked(capsys):
    code, _, err = run(capsys, "homology", "--surface", "1,0",
                       "--grading", "1,0,0")
    assert code == 1 and "3 coordinates" not in err and "2 coordinates" in err


def test_all_in_box_excludes_vectors(capsys):
    code, _, err = run(capsys, "homology", "--surface", "1,0",
                       "--grading", "all-in-box", "--grading", "1,0")
    assert code == 1 and "all-in-box" in err


def test_default_gradings_shape():
    s12 = surface_presentation(1, 2)
    picks, capped = resolve_selection(s12, None, 2, 8)
    assert not capped
    assert picks[0] == s12.zero
    assert len(picks) == 8
    assert len(set(picks)) == 8
    kernel = [x for x in picks if x.in_kernel_mu()]
    assert len(kernel) >= 2


def reference_selection(spec, selection, radius, cap):
    """The grading selection for one cap, written out directly: sort the
    box, then take the default picks or the all-in-box prefix."""
    box = box_support(spec, radius)
    ordered = sorted(box, key=lambda e: e.sort_key())
    if selection == "all-in-box":
        return ordered[:cap], len(ordered) > cap
    picks = [spec.zero]
    for g in spec.kernel_basis_elements():
        for cand in (g, g + g):
            if cand in set(box) and cand not in picks and len(picks) < 4:
                picks.append(cand)
    for x in ordered:
        if len(picks) >= cap:
            break
        if x.is_derived_element() and x not in picks:
            picks.append(x)
    return picks[:cap], len(picks) > cap


@pytest.mark.parametrize("spec, radius", [
    (surface_presentation(1, 2), 2), (surface_presentation(2, 3), 1),
    (symplectic_z2(), 3), (z2_z2torsion(), 2), (z3_rank2_form(), 1),
    (torsion_only(), 1)])
def test_one_sort_gives_every_cap_its_selection(spec, radius):
    caps = sorted(set(range(1, 40)) | {64, 200})
    got = {(selection, cap): resolve_selection(spec, selection, radius, cap)
           for selection in (None, "all-in-box") for cap in caps}
    # Every cap reads a prefix of the lazy weight walk: the selection
    # builds no box (reference_selection below does).
    assert radius not in spec._boxes
    for (selection, cap), picks in got.items():
        assert picks == reference_selection(spec, selection, radius, cap), (selection, cap)
    explicit = [spec.zero]
    for cap in (2, 3):
        assert resolve_selection(spec, explicit, radius, cap) == (explicit, False)


def test_default_selection_reads_only_the_lightest_gradings(monkeypatch):
    spec = surface_presentation(2, 3)
    built = []
    init = groups.GroupElement.__init__

    def counting_init(self, spec, coords):
        built.append(coords)
        init(self, spec, coords)

    monkeypatch.setattr(groups.GroupElement, "__init__", counting_init)
    args = argparse.Namespace(suite="all", box=2)
    tasks, notes = cli.build_verify_tasks(spec, "surface 2,3", args, None)
    assert [name for name, _ in tasks] == list(cli.SUITES)
    assert notes["h1"] == {"gradings_capped_at": cli.SWEEP_CAPS["h1"]}
    # No box is built: sorting box(2) would build all its 15,625 elements.
    assert spec._boxes == {}
    assert 0 < len(built) < 1000


def test_h1_certifies_surface10_at_box1(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "h1", "--surface", "1,0",
                       "--box", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert "enlarge" not in report["config"]
    (entry,) = report["results"]
    assert entry["verdict"] == "certified"
    per = entry["details"]["per_grading"]
    assert len(per) == 9
    # Radical gradings rest on the formal <u, z-u> = 0; derived ones name
    # a unit.
    assert [e for e in per if e["dim"] == 1] == [{"z": [0, 0], "dim": 1, "expected": 1}]
    assert entry["details"]["identities"][-1] == "<u, z-u> = 0 in a radical grading"
    assert all(len(e["preimage"]) == 1 for e in per if e["dim"] == 0)


def test_omega_and_h1_do_not_depend_on_the_box(capsys):
    # Their identities are proved over symbols, so box 2 and box 3 give
    # the same results on surface(1,2), but for params.box.
    gradings = "0,0,0,0;0,0,0,1;0,0,0,-2;1,0,0,0;1,1,1,0"
    results = {}
    for box in (2, 3):
        for suite in ("omega", "h1"):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--surface", "1,2",
                               "--box", str(box), "--grading", gradings, "--format", "json")
            assert code == 0
            results[suite, box] = json.loads(out)["results"]
            for r in results[suite, box]:
                assert r["verdict"] == "certified" and r["params"].pop("box") == box
    assert len(results["omega", 2]) == 3
    assert results["omega", 2] == results["omega", 3]
    assert results["h1", 2] == results["h1", 3]


def test_inner_suite_does_not_apply_to_a_zero_form(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "inner", "--surface", "0,2",
                       "--box", "2", "--format", "json")
    assert code == 0
    (entry,) = json.loads(out)["results"]
    assert entry["check"] == "inner-isomorphism"
    assert entry["verdict"] == "not-applicable"
    assert entry["details"] == {"note": "the form vanishes; no wedge is derived"}


def test_the_inner_suite_and_certification_read_one_cap(monkeypatch):
    # goldman.verify is the one reader of INNER_SUPPORT_CAP: patched there
    # alone, the suite's reach agrees with the certification's, and a
    # grading outside the capped box is skipped, not run to an
    # inconclusive on a box smaller than the suite believed.
    spec = z3_rank2_form()
    monkeypatch.setattr(verify, "INNER_SUPPORT_CAP", 9)
    (entry,) = cli.run_inner_suite(spec, [spec.element([0, 0, 2])], 3)
    assert (entry.verdict, entry.details) == ("not-applicable", {
        "note": "grading outside the inner cycle box of radius 1, the largest within "
                "--box and INNER_SUPPORT_CAP = 9 elements",
        "skipped_gradings": [[0, 0, 2]], "effective_radius": 1})


def test_refuted_inner_entry_has_the_certified_params(monkeypatch):
    z2 = symplectic_z2()
    (certified,) = cli.run_inner_suite(z2, [z2.zero], 2)
    witness_for = verify._generator_witness

    def doubled_scale(spec, z, u, v, probes):
        scale, keys = witness_for(spec, z, u, v, probes)
        return 2 * scale, keys

    monkeypatch.setattr(verify, "_generator_witness", doubled_scale)
    (refuted,) = cli.run_inner_suite(z2, [z2.zero], 2)
    assert (certified.verdict, refuted.verdict) == ("certified", "refuted")
    assert refuted.params == certified.params
    assert set(refuted.params) == {"spec", "z", "box", "boundary_box"}


_CORRUPT_HOMOLOGY = """
import sys
from goldman import verify
from goldman.cli import main

if not sys.flags.optimize:
    sys.exit("run with python -O")
phi2_keys = verify.ContractingHomotopy.phi2_keys
verify.ContractingHomotopy.phi2_keys = lambda self, terms: {
    key: 2 * c for key, c in phi2_keys(self, terms).items()}
sys.exit(main(["homology", "--surface", "1,2", "--box", "1",
               "--grading", "0,0,1,0;1,0,0,0", "--format", "json"]))
"""


def test_homology_keeps_its_report_when_an_identity_fails_under_python_O(tmp_path):
    script = tmp_path / "corrupt_homology.py"
    script.write_text(_CORRUPT_HOMOLOGY)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    radical, derived = report["results"]
    assert (radical["verdict"], radical["details"]["component"]) == ("certified", "inner")
    assert derived["check"] == "main-theorem"
    assert derived["verdict"] == "refuted"
    assert derived["details"] == {"failed_identity": "d(Phi_2(c)) = c"}
    assert derived["params"] == {"spec": "Z^3", "z": [0, 0, 1, 0], "box": 1,
                                 "boundary_box": 3}
    assert report["table"][1] == {"z": [0, 0, 1, 0], "Z2": None, "B2": None,
                                  "H2": None, "predicted": None, "verdict": "refuted"}
    assert report["summary"]["refuted"] == 1 and report["exit_status"] == 1


# Each script corrupts one witness or value behind a suite and runs it
# under python -O: the re-check must still refute, naming the identity.
_CORRUPTED_SUITES = {
    "gk": ("""
phi2_keys = verify.ContractingHomotopy.phi2_keys
verify.ContractingHomotopy.phi2_keys = lambda self, terms: {
    key: 2 * c for key, c in phi2_keys(self, terms).items()}
""", ["verify", "--suite", "gk", "--surface", "1,0", "--box", "2"],
        "gk-cycle", "d(Phi_2(part)) = part"),
    "h1": ("""
key_boundary = verify._key_boundary
verify._key_boundary = lambda spec, terms: {
    key: 2 * c for key, c in key_boundary(spec, terms).items()}
""", ["verify", "--suite", "h1", "--surface", "1,0", "--box", "1"],
        "h1-center", "d(preimage) = [z]"),
    "linext": ("""
functional = verify._integer_functional
verify._integer_functional = lambda spec, coeffs: (
    lambda x: functional(spec, coeffs)(x) + x[0] ** 2)
""", ["verify", "--suite", "linext", "--surface", "1,0", "--box", "1"],
        "linear-extension", "f(u+v) = f(u) + f(v)"),
    "bracket": ("""
import inspect
from goldman import algebra, cli
namespace = dict(vars(algebra))
exec(inspect.getsource(algebra.bracket).replace("cx * cy * p", "cx * cy * p ** 3"), namespace)
cli.bracket = namespace["bracket"]
""", ["verify", "--suite", "bracket", "--surface", "1,0", "--box", "1"],
        "bracket-axioms", "[a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0"),
    "complex": ("""
import inspect
from goldman import complexes
namespace = dict(vars(complexes))
exec(inspect.getsource(complexes._boundary_terms).replace(
    "((-1, a, b, c, d)", "((1, a, b, c, d)"), namespace)
complexes._boundary_terms = namespace["_boundary_terms"]
""", ["verify", "--suite", "complex", "--surface", "1,0", "--box", "1"],
        "complex-squares-to-zero", "d(d(w)) = 0 on 4-wedges"),
}


@pytest.mark.parametrize("suite", sorted(_CORRUPTED_SUITES))
def test_corrupted_suite_is_refuted_under_python_O(suite, tmp_path):
    corruption, argv, check, identity = _CORRUPTED_SUITES[suite]
    script = tmp_path / "corrupt.py"
    script.write_text(
        "import sys\nfrom goldman import verify\nfrom goldman.cli import main\n"
        "if not sys.flags.optimize:\n    sys.exit('run with python -O')\n"
        + corruption
        + "sys.exit(main(%r))\n" % (argv + ["--format", "json"]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    (entry,) = report["results"]
    assert entry["check"] == check
    assert entry["verdict"] == "refuted"
    assert entry["details"] == {"failed_identity": identity}
    assert report["summary"]["certified"] == 0


def _mutant(fn, old, new):
    """fn recompiled from its source with ``old`` replaced by ``new``."""
    return source_mutant(fn, [(old, new)])


# Every sign flip and dropped coincidence test of _boundary_terms that
# d o d can see.  Negating all of d_2, or all of the loop, keeps
# d o d = 0, so no such check can catch those two.
_BOUNDARY_MUTANTS = [
    pytest.param(old, new, id="%s-%d" % (where, i))
    for where, pairs in (
        ("d3-sign", D3_SIGN_FLIPS),
        ("d3-coincidence", [("if total != c:", "if True:"), ("if total != b:", "if True:"),
                            ("if total != a:", "if True:")]),
        ("d4-sign", D4_SIGN_FLIPS),
        ("d4-coincidence", [("if total != r0:", "if True:"), ("elif total != r1:", "else:")]),
        ("loop-coincidence", [("if k < len(rest) and rest[k] == total:", "if False:")]),
    )
    for i, (old, new) in enumerate(pairs)]


@pytest.mark.parametrize("old, new", _BOUNDARY_MUTANTS)
def test_a_boundary_mutant_is_refuted(old, new, monkeypatch):
    monkeypatch.setattr(complexes, "_boundary_terms",
                        _mutant(complexes._boundary_terms, old, new))
    result = cli.run_complex_suite()
    assert result.verdict == "refuted"
    assert result.details["failed_identity"].startswith("d(d(w)) = 0 on ")


@pytest.mark.parametrize("new, identity", [
    ("cy * p", "[2a + 3b, c] = 2[a, c] + 3[b, c]"),
    ("cx * p", "[c, 2a + 3b] = 2[c, a] + 3[c, b]"),
    ("cx * cy * p ** 3", "[a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0"),
], ids=["drop-cx", "drop-cy", "cubed-pairing"])
def test_a_bracket_mutant_is_refuted(new, identity, monkeypatch):
    # Dropping a coefficient passes skew-symmetry and Jacobi on symbols;
    # only bilinearity with non-unit coefficients sees it.
    monkeypatch.setattr(cli, "bracket", _mutant(algebra.bracket, "cx * cy * p", new))
    result = cli.run_bracket_suite()
    assert (result.verdict, result.details) == ("refuted", {"failed_identity": identity})


@pytest.mark.parametrize("name", sorted(OUTER_MUTANTS))
def test_an_outer_homotopy_mutant_is_refuted(name, monkeypatch):
    # The scale or one scaled factor flipped, a degree-3 sign flipped,
    # u-y and v-y swapped in Phi_2, or its tail term dropped: the formal
    # identity fails, and the outer entry is refuted naming it.
    spec = surface_presentation(1, 2)
    z = spec.element([1, 1, 1, 0])
    (certified,) = cli.run_outer_suite(spec, [z], 1)
    monkeypatch.setattr(*outer_mutant(name))
    (refuted,) = cli.run_outer_suite(spec, [z], 1)
    assert certified.verdict == "certified"
    assert (refuted.verdict, refuted.details) == (
        "refuted", {"failed_identity": HOMOTOPY_IDENTITY})
    assert refuted.params == certified.params
    assert verify._homotopy_identity_holds() is False


def _outer_entry_on_z2_z2torsion(**kernels):
    """The outer entry of Z^2 + Z/2 at a derived grading, box 1, with its
    coordinate kernels replaced by ``kernels``."""
    spec = z2_z2torsion()
    z = spec.canonical([1, 1, 0])
    assert z.is_derived_element()
    for name, fn in kernels.items():
        setattr(spec, name, fn)
    (entry,) = cli.run_outer_suite(spec, [z], 1)
    return entry


def test_the_outer_entry_checks_the_group_kernels():
    assert _outer_entry_on_z2_z2torsion().verdict == "certified"
    # Without the torsion wrap, (1, 0, 0) + (1, 0, 0) is not (0, 0, 0).
    unwrapped = _outer_entry_on_z2_z2torsion(
        add_coords=lambda a, b: tuple(x + y for x, y in zip(a, b)))
    assert (unwrapped.verdict, unwrapped.details) == (
        "refuted", {"failed_identity": "add_coords = canonical a + b on signed units"})
    spec = z2_z2torsion()
    (i, j, w), = spec._pair_entries
    doubled = _outer_entry_on_z2_z2torsion(
        pair_coords=groups._coordinate_kernels(spec.divisors, ((i, j, 2 * w),))[2])
    assert (doubled.verdict, doubled.details) == (
        "refuted", {"failed_identity": "pair_coords = a Omega~ b^T on signed units"})


def test_entry_params_compute_no_smith_normal_form(monkeypatch):
    # The group's label is computed once, with the group; naming it in
    # an entry runs no Smith normal form.
    spec = surface_presentation(1, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(groups, "smith_normal_form", refuse)
    with pytest.raises(AssertionError):
        spec.kernel_basis_elements()
    assert verify._inner_params(spec, spec.zero, 2)["spec"] == "Z^3"
    assert cli._skip("omega-class", "note", spec, 2).params == {"spec": "Z^3", "box": 2}
    (entry,) = cli.run_linext_suite(spec, 2)
    assert entry.params == {"spec": "Z^3", "box": 2}


# Each patch runs `verify --suite outer` under python -O; "patches" maps
# a name to (argv tail, patch).  The Z^2 + Z/2 spec file and the reports
# lie in the directory sys.argv[1].
_PATCHED_HOMOTOPY = """
import json, os, sys
from fractions import Fraction
from unittest import mock
from goldman import groups, verify
from goldman.cli import main
from conftest import (HOMOTOPY_COEFFICIENTS, OUTER_MUTANTS, outer_mutant,
                      reference_homotopy_factors)

if not sys.flags.optimize:
    sys.exit("run with python -O")
surface = ["--surface", "1,2", "--grading", "1,1,1,0"]
torsion = ["--spec", os.path.join(sys.argv[1], "z2t.json"), "--grading", "1,1,0"]
patches = {}
for name in HOMOTOPY_COEFFICIENTS:
    factors = reference_homotopy_factors(dict(HOMOTOPY_COEFFICIENTS, **{name: Fraction(3, 2)}))
    patches[name + "=1.5"] = surface, mock.patch.object(verify, "_homotopy_factors", factors)
for name in OUTER_MUTANTS:
    patches[name] = surface, mock.patch.object(*outer_mutant(name))
kernels = groups._coordinate_kernels
patches["unwrapped-add"] = torsion, mock.patch.object(
    groups, "_coordinate_kernels", lambda divisors, entries: (
        kernels((0,) * len(divisors), entries)[0], *kernels(divisors, entries)[1:]))
patches["doubled-pair-entry"] = surface, mock.patch.object(
    groups, "_coordinate_kernels", lambda divisors, entries: kernels(
        divisors, ((entries[0][0], entries[0][1], 2 * entries[0][2]),) + entries[1:]))
out = {}
for name, (argv, patch) in patches.items():
    path = os.path.join(sys.argv[1], name + ".json")
    with patch:
        code = main(["verify", "--suite", "outer", *argv, "--box", "2",
                     "--format", "json", "--out", path])
    with open(path) as fh:
        out[name] = [code, json.load(fh)]
print(json.dumps(out))
"""


def test_a_patched_homotopy_coefficient_is_refuted_under_python_O(tmp_path):
    # Any one of the five fixed coefficients changed (with the factors
    # derived from it), any outer homotopy mutant, or a group kernel
    # broken: the entry is refuted naming the identity that failed,
    # although asserts are off.
    write_spec(tmp_path, "z2t.json", {"generators": 3, "relations": [[0, 0, 2]],
                                      "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]})
    script = tmp_path / "patched.py"
    script.write_text(_PATCHED_HOMOTOPY)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    proc = subprocess.run([sys.executable, "-O", str(script), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    want = {**{name + "=1.5": HOMOTOPY_IDENTITY for name in HOMOTOPY_COEFFICIENTS},
            **{name: HOMOTOPY_IDENTITY for name in OUTER_MUTANTS},
            "unwrapped-add": "add_coords = canonical a + b on signed units",
            "doubled-pair-entry": "pair_coords = a Omega~ b^T on signed units"}
    assert sorted(runs) == sorted(want)
    for name, (code, report) in runs.items():
        (entry,) = report["results"]
        assert code == 1, name
        assert entry["check"] == "outer-exactness"
        assert (entry["verdict"], entry["details"]) == (
            "refuted", {"failed_identity": want[name]}), name


# Each omega mutant runs the suites it names (the unpatched run first,
# as "") on the free radical grading of surface(1,2), under python -O.
_OMEGA_MUTANT_RUNS = """
import contextlib, json, os, sys
from unittest import mock
from goldman.cli import main
from conftest import OMEGA_MUTANTS, omega_mutant

if not sys.flags.optimize:
    sys.exit("run with python -O")
patches = {"": (("omega", "h1"), contextlib.nullcontext())}
for name, (_, _, suites) in OMEGA_MUTANTS.items():
    patches[name] = suites, mock.patch.object(*omega_mutant(name))
out = {}
for name, (suites, patch) in patches.items():
    for suite in suites:
        path = os.path.join(sys.argv[1], "%s-%s.json" % (name, suite))
        with patch:
            code = main(["verify", "--suite", suite, "--surface", "1,2", "--grading", "0,0,0,1",
                         "--box", "1", "--format", "json", "--out", path])
        with open(path) as fh:
            out.setdefault(name, {})[suite] = [code, json.load(fh)]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def omega_mutant_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("omega_mutants")
    script = tmp / "mutants.py"
    script.write_text(_OMEGA_MUTANT_RUNS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    proc = subprocess.run([sys.executable, "-O", str(script), str(tmp)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(OMEGA_MUTANTS))
def test_an_omega_or_h1_mutant_is_refuted_under_python_O(name, omega_mutant_runs):
    # A sign of the degree-4 or degree-3 differential, a sign of the
    # primitive, omega read on the wrong pair, or the radical constraint
    # of the formal spec dropped: each suite the mutant names refutes its
    # entry with that identity, although asserts are off.
    for code, report in omega_mutant_runs[""].values():
        assert (code, [r["verdict"] for r in report["results"]]) == (0, ["certified"])
    want = OMEGA_MUTANTS[name][2]
    assert sorted(omega_mutant_runs[name]) == sorted(want)
    for suite, identity in want.items():
        code, report = omega_mutant_runs[name][suite]
        (entry,) = report["results"]
        assert code == 1, suite
        assert (entry["verdict"], entry["details"]) == (
            "refuted", {"failed_identity": identity}), suite


# Each inner mutant (the unpatched run first, as "") runs the inner suite
# and homology on the free radical grading of surface(1,2), under python -O.
_INNER_MUTANT_RUNS = """
import contextlib, json, os, sys
from unittest import mock
from goldman.cli import main
from conftest import INNER_MUTANTS, verify_mutant

if not sys.flags.optimize:
    sys.exit("run with python -O")
patches = {"": contextlib.nullcontext()}
for name, (path, replacements, _) in INNER_MUTANTS.items():
    patches[name] = mock.patch.object(*verify_mutant(path, replacements))
out = {}
for name, patch in patches.items():
    for command in ("verify", "homology"):
        path = os.path.join(sys.argv[1], "%s-%s.json" % (name, command))
        argv = [command, *(["--suite", "inner"] if command == "verify" else []),
                "--surface", "1,2", "--grading", "0,0,0,1", "--box", "1",
                "--format", "json", "--out", path]
        with patch:
            code = main(argv)
        with open(path) as fh:
            out.setdefault(name, {})[command] = [code, json.load(fh)]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def inner_mutant_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inner_mutants")
    script = tmp / "mutants.py"
    script.write_text(_INNER_MUTANT_RUNS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    proc = subprocess.run([sys.executable, "-O", str(script), str(tmp)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(INNER_MUTANTS))
def test_an_inner_f_mutant_is_refuted_under_python_O(name, inner_mutant_runs):
    # A sign of the degree-3 differential, the radical constraint of the
    # formal spec dropped, or a projection that is not additive or does
    # not kill z: the inner-isomorphism and main-theorem entries are
    # refuted naming the identity, although asserts are off.  The
    # main-theorem entry cites the radical lemma after the inner ones.
    clean = inner_mutant_runs[""]
    for command, check, identities in (
            ("verify", "inner-isomorphism", INNER_IDENTITIES),
            ("homology", "main-theorem", [*INNER_IDENTITIES, RADICAL_PAIRING])):
        code, report = clean[command]
        (entry,) = report["results"]
        assert (code, entry["check"], entry["verdict"]) == (0, check, "certified")
        assert entry["details"]["identities"] == identities
        code, report = inner_mutant_runs[name][command]
        (entry,) = report["results"]
        assert (code, entry["check"]) == (1, check)
        assert (entry["verdict"], entry["details"]) == (
            "refuted", {"failed_identity": INNER_MUTANTS[name][2]}), command


# Each lemma mutant (the unpatched run first, as "") runs the suites it
# names on surface(1,2) at a radical and a derived grading, under
# python -O; "homology" runs the radical grading alone.
_LEMMA_MUTANT_RUNS = """
import contextlib, json, os, sys
from unittest import mock
from goldman.cli import main
from conftest import LEMMA_MUTANTS, verify_mutant

if not sys.flags.optimize:
    sys.exit("run with python -O")
patches = {"": (("outer", "h1", "gk", "homology"), contextlib.nullcontext())}
for name, (path, replacements, suites) in LEMMA_MUTANTS.items():
    patches[name] = suites, mock.patch.object(*verify_mutant(path, replacements))
out = {}
for name, (suites, patch) in patches.items():
    for suite in suites:
        path = os.path.join(sys.argv[1], "%s-%s.json" % (name, suite))
        argv = (["homology", "--grading", "0,0,0,1"] if suite == "homology" else
                ["verify", "--suite", suite, "--grading", "0,0,0,1;1,0,0,0"])
        with patch:
            code = main([*argv, "--surface", "1,2", "--box", "1", "--format", "json",
                         "--out", path])
        with open(path) as fh:
            out.setdefault(name, {})[suite] = [code, json.load(fh)]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def lemma_mutant_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lemma_mutants")
    script = tmp / "mutants.py"
    script.write_text(_LEMMA_MUTANT_RUNS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    proc = subprocess.run([sys.executable, "-O", str(script), str(tmp)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(LEMMA_MUTANTS))
def test_a_unit_or_radical_lemma_mutant_is_refuted_under_python_O(name, lemma_mutant_runs):
    # Units that miss every derived element, or a flipped sign of d_2:
    # each entry the mutant names is refuted with the unit lemma or the
    # radical lemma, although asserts are off.
    for code, report in lemma_mutant_runs[""].values():
        assert (code, [r["verdict"] for r in report["results"]]) == (0, ["certified"])
    want = LEMMA_MUTANTS[name][2]
    assert sorted(lemma_mutant_runs[name]) == sorted(want)
    for suite, identity in want.items():
        code, report = lemma_mutant_runs[name][suite]
        (entry,) = report["results"]
        assert code == 1, suite
        assert (entry["verdict"], entry["details"]) == (
            "refuted", {"failed_identity": identity}), suite


# The proofs a run cites; inner's additivity check is per entry and not
# among them.
_PROOFS = ("_homotopy_identity_holds", "_kernel_identities", "_f_identity_holds",
           "_omega_identities", "_radical_identities")


@pytest.mark.parametrize("argv, golden, counts", [
    (["homology", "--surface", "1,2", "--box", "3"], "homology_surface12_box3.json",
     {"_homotopy_identity_holds": 1, "_kernel_identities": 1, "_f_identity_holds": 1,
      "_radical_identities": 1}),
    (["verify", "--suite", "all", "--surface", "2,3", "--box", "2", "--seed", "1"],
     "verify_all_surface23_box2_seed1.json",
     {"_homotopy_identity_holds": 1, "_kernel_identities": 1, "_f_identity_holds": 1,
      "_omega_identities": 2, "_radical_identities": 1}),
], ids=["homology-s12", "golden"])
def test_a_command_proves_each_identity_once(argv, golden, counts, monkeypatch, capsys):
    # One Proofs value per command: the 64 gradings of homology-s12
    # prove the homotopy identity and the radical lemma and check the
    # group's kernels once between them, golden's h1 proves the radical
    # lemma once, and golden proves omega's identities once per kind of
    # grading (torsion, free); the bytes do not move.
    calls = dict.fromkeys(_PROOFS, 0)

    def counted(name, prove):
        def wrapper(*args):
            calls[name] += 1
            return prove(*args)
        return wrapper

    for name in _PROOFS:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    with open(os.path.join(os.path.dirname(__file__), "golden", golden)) as fh:
        assert out == fh.read()
    assert calls == dict(dict.fromkeys(_PROOFS, 0), **counts)


@pytest.mark.parametrize("argv", [
    ["homology", "--surface", "1,2", "--box", "3"],
    ["verify", "--suite", "all", "--surface", "2,3", "--box", "2", "--seed", "1"],
], ids=["homology-s12", "golden"])
def test_no_entry_walks_a_box_for_its_units(argv, monkeypatch, capsys):
    # Every y, u and pair (a, b) of the outer, h1, gk and omega entries,
    # and the radical main-theorem count, comes from the group's units or
    # the radical pool: counted by caller, the only box any of them reads
    # is the outer slice's pool at --box, and only the grading selection
    # and the inner search walk a box in weight order.
    walks = collections.Counter()
    for module in (cli, verify):
        for name in ("box_by_weight", "box_support"):
            if hasattr(module, name):
                def spy(spec, radius, _walk=getattr(module, name), _name=name):
                    walks[_name, sys._getframe(1).f_code.co_name, radius] += 1
                    return _walk(spec, radius)
                monkeypatch.setattr(module, name, spy)
    assert run(capsys, *argv, "--format", "json")[0] == 0
    box = int(argv[argv.index("--box") + 1])
    entries = {"outer_h2_certify", "h1_check", "run_gk_suite", "gk_cycle_check",
               "omega_check", "_omega_rows", "_main_theorem_entry"}
    assert {key for key in walks if key[1] in entries} == {
        ("box_support", "outer_h2_certify", box)}
    assert {caller for name, caller, _ in walks if name == "box_by_weight"} == {
        "resolve_selection", "_certify"}


@pytest.mark.parametrize("argv, golden", [
    (["homology", "--surface", "1,2", "--box", "3"], "homology_surface12_box3.json"),
    (["verify", "--suite", "all", "--surface", "2,3", "--box", "2", "--seed", "1"],
     "verify_all_surface23_box2_seed1.json"),
], ids=["homology-s12", "golden"])
def test_no_command_forks(argv, golden, monkeypatch, capsys):
    # Every suite and grading runs in this process: with os.fork
    # refusing, both committed reports come out byte for byte.
    def refuse():
        raise AssertionError("a command forked")

    monkeypatch.setattr(os, "fork", refuse)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    with open(os.path.join(os.path.dirname(__file__), "golden", golden)) as fh:
        assert out == fh.read()


def test_verify_calls_each_patched_runner_once_in_report_order(monkeypatch, capsys):
    # The runners are looked up on goldman.cli when each suite runs, as
    # bench/probe.py and bench/hooks.py need: wrapped there, each is
    # called once, in report order, and the report does not move.
    code, want, _ = run(capsys, "verify", "--suite", "all", "--surface", "2,3", "--box", "1")
    calls = []
    for suite in cli.SUITES:
        runner = getattr(cli, "run_%s_suite" % suite)
        monkeypatch.setattr(cli, "run_%s_suite" % suite, lambda *a, _s=suite, _run=runner, **kw: (
            calls.append(_s), _run(*a, **kw))[1])
    assert run(capsys, "verify", "--suite", "all", "--surface", "2,3", "--box", "1") == (
        code, want, "")
    assert calls == list(cli.SUITES)


def test_refuted_gradings_stay_in_their_slots(monkeypatch):
    # A homotopy mutant refutes outer gradings, and main-theorem's outer
    # gradings, in the slots of their gradings; the inner grading
    # between them still certifies.
    phi2_keys = verify.ContractingHomotopy.phi2_keys
    monkeypatch.setattr(verify.ContractingHomotopy, "phi2_keys", lambda self, terms: {
        key: 2 * c for key, c in phi2_keys(self, terms).items()})
    z2 = symplectic_z2()
    outer = cli.run_outer_suite(z2, [z2.element(c) for c in ([1, 0], [0, 1], [1, 1])], 1)
    s = surface_presentation(1, 2)
    gradings = [s.element(c) for c in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0])]
    theorem = verify.main_theorem_check(s, gradings, 1)
    outer, theorem = [r.to_dict() for r in outer], [r.to_dict() for r in theorem]
    assert [r["params"]["z"] for r in outer] == [[1, 0], [0, 1], [1, 1]]
    assert all(r["verdict"] == "refuted"
               and r["details"] == {"failed_identity": "d(Phi_2(c)) = c"} for r in outer)
    assert [r["params"]["z"] for r in theorem] == [list(z.coords) for z in gradings]
    assert [r["verdict"] for r in theorem] == ["refuted", "certified", "refuted"]
    assert theorem[1]["details"]["component"] == "inner"


def test_an_error_in_one_grading_is_raised_in_the_caller(monkeypatch):
    # Only a CertificateError becomes a refuted entry; any other error
    # in one grading reaches the caller of the suite unchanged.
    certify = cli.outer_h2_certify

    def broken(spec, z, box, proofs):
        if z.coords == (0, 1):
            raise ValueError("no homotopy for z = %s" % (list(z.coords),))
        return certify(spec, z, box, proofs)

    monkeypatch.setattr(cli, "outer_h2_certify", broken)
    z2 = symplectic_z2()
    with pytest.raises(ValueError, match=r"^no homotopy for z = \[0, 1\]$"):
        cli.run_outer_suite(z2, [z2.element(c) for c in ([1, 0], [0, 1], [1, 1])], 1)


def test_a_patch_between_runs_is_seen_by_the_next_run(monkeypatch, capsys):
    # Each command proves afresh: unpatched, then with the homotopy's
    # scale flipped, then unpatched again, in one process, `verify
    # --suite outer` certifies, refutes every entry naming the identity,
    # and certifies again.
    def outer_entries():
        code, out, _ = run(capsys, "verify", "--suite", "outer", "--surface", "1,2",
                           "--box", "1", "--format", "json")
        return code, [(r["verdict"], r["details"].get("failed_identity"))
                      for r in json.loads(out)["results"]]

    first = outer_entries()
    with monkeypatch.context() as patch:
        patch.setattr(*outer_mutant("scale"))
        second = outer_entries()
    third = outer_entries()
    assert len(first[1]) > 1
    assert first == third == (0, [("certified", None)] * len(first[1]))
    assert second == (1, [("refuted", HOMOTOPY_IDENTITY)] * len(first[1]))


# homology on surface(1,2) at box 2, unpatched and then with the outer
# mutant "scale", under python -O; the reports lie in sys.argv[1].
_HOMOLOGY_MUTANT_RUNS = """
import contextlib, json, os, sys
from unittest import mock
from goldman.cli import main
from conftest import outer_mutant

if not sys.flags.optimize:
    sys.exit("run with python -O")
out = {}
for name in ("clean", "scale"):
    path = os.path.join(sys.argv[1], name + ".json")
    with mock.patch.object(*outer_mutant("scale")) if name == "scale" else contextlib.nullcontext():
        code = main(["homology", "--surface", "1,2", "--box", "2", "--format", "json",
                     "--out", path])
    with open(path) as fh:
        out[name] = [code, json.load(fh)]
print(json.dumps(out))
"""


def test_a_failed_proof_refutes_every_entry_citing_it_under_python_O(tmp_path):
    # The homotopy identity fails once per run (once per worker), and
    # every outer row is refuted naming it, not only the first to prove
    # it; the inner rows are those of the unpatched run.
    script = tmp_path / "homology_mutant.py"
    script.write_text(_HOMOLOGY_MUTANT_RUNS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    proc = subprocess.run([sys.executable, "-O", str(script), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    (clean_code, clean), (code, patched) = runs["clean"], runs["scale"]
    outer = [i for i, r in enumerate(clean["results"]) if r["details"].get("component") == "outer"]
    assert clean_code == 0 and code == 1 and len(outer) > 1
    assert len(patched["results"]) == len(clean["results"])
    for i, (want, got) in enumerate(zip(clean["results"], patched["results"])):
        assert got["params"] == want["params"]
        if i in outer:
            assert (got["verdict"], got["details"]) == (
                "refuted", {"failed_identity": HOMOTOPY_IDENTITY}), i
        else:
            assert got == want, i
    assert patched["summary"]["refuted"] == len(outer)


def test_no_command_builds_a_wedge_chain(monkeypatch, capsys):
    # The command paths run on integer wedge keys: with WedgeChain
    # refused, verify and homology print the bytes of an unpatched run.
    # Forked workers inherit the patch.
    argvs = (["verify", "--suite", "all", "--surface", "1,2", "--box", "2", "--seed", "1",
              "--format", "json"],
             ["homology", "--surface", "1,2", "--box", "2", "--format", "json"])
    want = [run(capsys, *argv) for argv in argvs]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a command built a WedgeChain")

    monkeypatch.setattr(complexes.WedgeChain, "__init__", refuse)
    spec = symplectic_z2()
    with pytest.raises(AssertionError):
        complexes.wedge_chain(spec, [spec.element([1, 0])])
    assert [run(capsys, *argv) for argv in argvs] == want
    assert [code for code, _, _ in want] == [0, 0]


# ---------------------------------------------------------------------------
# Homology command


def test_homology_table_torus(capsys):
    code, out, _ = run(capsys, "homology", "--surface", "1,0", "--box", "3",
                       "--grading", "0,0;1,0", "--format", "json")
    assert code == 0
    report = json.loads(out)
    by_z = {tuple(row["z"]): row for row in report["table"]}
    origin = by_z[(0, 0)]
    assert (origin["Z2"], origin["B2"], origin["H2"]) == (24, 22, 2)
    assert origin["predicted"] == 2
    outer = by_z[(1, 0)]
    assert outer["H2"] == 0 and outer["predicted"] == 0
    assert outer["Z2"] == outer["B2"]
    assert all(row["verdict"] == "certified" for row in report["table"])


def test_homology_zero_form_notice(tmp_path, capsys):
    path = write_spec(tmp_path, "flat.json", {"generators": 2})
    code, out, _ = run(capsys, "homology", "--spec", path, "--box", "1",
                       "--grading", "0,0")
    assert code == 0
    assert "identically zero" in out
    assert "not-applicable" in out


def test_homology_reports_a_failed_identity_in_its_row(monkeypatch, capsys):
    phi2_keys = verify.ContractingHomotopy.phi2_keys
    monkeypatch.setattr(verify.ContractingHomotopy, "phi2_keys", lambda self, terms: {
        key: 2 * c for key, c in phi2_keys(self, terms).items()})
    code, out, err = run(capsys, "homology", "--surface", "1,0", "--box", "2",
                         "--grading", "0,0;1,0")
    assert code == 1 and err == ""
    lines = out.splitlines()
    head = lines.index(next(line for line in lines if line.startswith("z ")))
    assert [line.split() for line in lines[head + 1:head + 3]] == [
        ["[0,", "0]", "12", "10", "2", "2", "certified"],
        ["[1,", "0]", "-", "-", "-", "-", "refuted"]]
    assert "failed_identity=d(Phi_2(c)) = c" in out
    assert "summary: 1 certified, 1 refuted" in out


def test_homology_inconclusive_exits_two(tmp_path, capsys):
    path = write_spec(tmp_path, "z3.json", {
        "generators": 3,
        "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]})
    code, out, _ = run(capsys, "homology", "--spec", path, "--box", "1",
                       "--grading", "0,0,2", "--format", "json")
    assert code == 2
    report = json.loads(out)
    (row,) = report["table"]
    assert row["verdict"] == "inconclusive-at-truncation"
    assert report["summary"]["inconclusive"] == 1


# ---------------------------------------------------------------------------
# Verify command


def test_verify_single_suites_torus(capsys):
    for suite in ("bracket", "complex", "inner", "outer", "omega",
                  "h1", "linext", "gk"):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--surface", "1,0", "--box", "2",
                           "--seed", "3", "--format", "json")
        assert code == 0, suite
        report = json.loads(out)
        assert report["summary"]["refuted"] == 0
        assert report["summary"]["certified"] >= 1, suite
        assert report["config"]["seed"] == 3


def test_verify_all_torus(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--surface", "1,0",
                       "--box", "2", "--seed", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    suites_seen = {r["check"] for r in report["results"]}
    assert {"bracket-axioms", "complex-squares-to-zero", "inner-isomorphism",
            "outer-exactness", "gk-cycle", "surface-generators",
            "omega-class", "h1-center",
            "linear-extension"} <= suites_seen
    assert report["summary"]["refuted"] == 0
    assert report["summary"]["inconclusive"] == 0


def test_verify_surface_suite_needs_surface_source(tmp_path, capsys):
    path = write_spec(tmp_path, "g.json", {
        "generators": 2, "form": [[0, 1], [-1, 0]]})
    code, out, _ = run(capsys, "verify", "--suite", "surface", "--spec", path,
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    (entry,) = report["results"]
    assert entry["verdict"] == "not-applicable"


def test_verify_all_keeps_its_report_on_a_genus_zero_surface(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--surface", "0,2",
                         "--box", "2", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert [r["check"] for r in report["results"]][:2] == [
        "bracket-axioms", "complex-squares-to-zero"]
    assert {r["check"] for r in report["results"]} == {
        "bracket-axioms", "complex-squares-to-zero", "inner-isomorphism",
        "outer-exactness", "gk-cycle", "surface-generators", "omega-class",
        "h1-center", "linear-extension"}
    (surface,) = [r for r in report["results"] if r["check"] == "surface-generators"]
    assert surface["verdict"] == "not-applicable"
    assert "genus >= 1" in surface["details"]["note"]
    assert report["summary"]["refuted"] == 0 and report["exit_status"] == 0


def test_suite_level_not_applicable_entries_carry_the_suite_params(tmp_path, capsys):
    # Each not-applicable entry names its group, and its box wherever the
    # suite's other entries do; the surface suite has no box.
    code, out, _ = run(capsys, "verify", "--suite", "all", "--surface", "0,2",
                       "--box", "1", "--format", "json")
    assert code == 0
    skipped = {r["check"]: r["params"] for r in json.loads(out)["results"]
               if r["verdict"] == "not-applicable"}
    assert skipped == {
        "inner-isomorphism": {"spec": "Z", "box": 1},
        "outer-exactness": {"spec": "Z", "box": 1},
        "gk-cycle": {"spec": "Z", "box": 1},
        "surface-generators": {"spec": "Z"},
        "omega-class": {"spec": "Z", "box": 1},
        "linear-extension": {"spec": "Z", "box": 1}}
    path = write_spec(tmp_path, "g.json", {"generators": 2, "form": [[0, 1], [-1, 0]]})
    code, out, _ = run(capsys, "verify", "--suite", "surface", "--spec", path,
                       "--format", "json")
    assert json.loads(out)["results"][0]["params"] == {"spec": "Z^2"}


def test_verify_inner_skips_unreachable_grading(tmp_path, capsys):
    path = write_spec(tmp_path, "z3.json", {
        "generators": 3,
        "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]})
    code, out, _ = run(capsys, "verify", "--suite", "inner", "--spec", path,
                       "--box", "1", "--grading", "0,0,2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    (entry,) = report["results"]
    assert entry["verdict"] == "not-applicable"
    assert entry["details"]["skipped_gradings"] == [[0, 0, 2]]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "all", "--surface", "1,2", "--box", "2"),
    ("homology", "--surface", "1,2", "--box", "2"),
], ids=["verify-all", "homology"])
def test_no_command_builds_a_wedge(argv, monkeypatch, capsys):
    # Every command runs on wedge keys: with the Wedge constructor
    # refusing, the report is the same.
    code, want, _ = run(capsys, *argv)
    assert code == 0

    def refuse(self, factors):
        raise AssertionError("a Wedge was built")

    monkeypatch.setattr(complexes.Wedge, "__init__", refuse)
    with pytest.raises(AssertionError):
        complexes.Wedge.make([symplectic_z2().zero])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == want


def test_verify_zero_form_group(tmp_path, capsys):
    path = write_spec(tmp_path, "flat.json", {"generators": 2})
    code, out, _ = run(capsys, "verify", "--suite", "all", "--spec", path,
                       "--box", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    verdicts = {r["check"]: r["verdict"] for r in report["results"]}
    assert verdicts["bracket-axioms"] == "certified"
    assert verdicts["omega-class"] == "not-applicable"
    assert verdicts["outer-exactness"] == "not-applicable"
    assert verdicts["linear-extension"] == "not-applicable"
    assert verdicts["gk-cycle"] == "not-applicable"
    # With a zero form every grading sits in the radical: the boundary
    # vanishes and H1 is one-dimensional per grading (the whole algebra is
    # the center), so h1 certifies trivially.  No wedge is derived, so the
    # inner slice is empty while Q (x) (H / Zz) is not: inner does not apply.
    assert verdicts["h1-center"] == "certified"
    assert verdicts["inner-isomorphism"] == "not-applicable"


# ---------------------------------------------------------------------------
# Determinism and output plumbing


def test_reports_are_byte_identical(tmp_path, capsys):
    args = ["verify", "--suite", "all", "--surface", "1,0", "--box", "2",
            "--seed", "5", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_jobs_flag_is_gone(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bracket", "--surface", "1,0",
                       "--jobs", "2")
    assert code == 1 and "--jobs" in err


def test_text_format_deterministic(tmp_path, capsys):
    base = ["homology", "--surface", "1,2", "--box", "2",
            "--grading", "0,0,1,0"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    out = capsys.readouterr().out
    assert "report written to" in out
    assert a.read_bytes() == b.read_bytes()


def test_seed_is_only_recorded_in_the_config(capsys):
    # No check samples: the results of every suite are the same at two
    # seeds, and the report differs only in config.seed.
    outs = []
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           "--surface", "1,1", "--box", "2", "--seed", seed,
                           "--format", "json")
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["results"] == outs[1]["results"]
    assert [o["config"].pop("seed") for o in outs] == [1, 2]
    assert outs[0] == outs[1]
