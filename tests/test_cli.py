"""Tests for the command-line front end.

Everything runs through goldman.cli.main in process; reports land in
tmp_path files or captured stdout.  Oracles are the library-level dims
already pinned in test_verify.py.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from goldman import cli, complexes, verify
from goldman.cli import main, resolve_selection
from goldman import box_support, surface_presentation

from conftest import symplectic_z2, torsion_only, z2_z2torsion, z3_rank2_form


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
    caps = set(range(1, 40)) | {64, 200}
    for selection in (None, "all-in-box"):
        for cap in caps:
            assert resolve_selection(spec, selection, radius, cap) == reference_selection(
                spec, selection, radius, cap), (selection, cap)
    # Every cap reads the one weight order kept on the spec.
    order = spec._boxes[radius][1]
    resolve_selection(spec, None, radius, 3)
    assert order is not None and spec._boxes[radius][1] is order
    explicit = [spec.zero]
    for cap in (2, 3):
        assert resolve_selection(spec, explicit, radius, cap) == (explicit, False)


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
    # Radical gradings scan the whole box(1); derived ones name a unit.
    assert [e["incoming_coefficients_scanned"] for e in per if e["dim"] == 1] == [9]
    assert all(len(e["preimage"]) == 1 for e in per if e["dim"] == 0)


def test_inner_suite_does_not_apply_to_a_zero_form(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "inner", "--surface", "0,2",
                       "--box", "2", "--format", "json")
    assert code == 0
    (entry,) = json.loads(out)["results"]
    assert entry["check"] == "inner-isomorphism"
    assert entry["verdict"] == "not-applicable"
    assert entry["details"] == {"note": "the form vanishes; no wedge is derived"}


def test_refuted_inner_entry_has_the_certified_params(monkeypatch):
    z2 = symplectic_z2()
    (certified,) = cli.run_inner_suite(z2, [z2.zero], 2)
    witness_for = verify.InnerCertification._witness_for

    def doubled_scale(self, u, v, probes):
        scale, keys = witness_for(self, u, v, probes)
        return 2 * scale, keys

    monkeypatch.setattr(verify.InnerCertification, "_witness_for", doubled_scale)
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
phi2 = verify.ContractingHomotopy.phi2
verify.ContractingHomotopy.phi2 = lambda self, c: 2 * phi2(self, c)
""", ["verify", "--suite", "gk", "--surface", "1,0", "--box", "2"],
        "gk-cycle", "d(Phi_2(part)) = part"),
    "h1": ("""
boundary = verify.boundary
verify.boundary = lambda c: 2 * boundary(c)
""", ["verify", "--suite", "h1", "--surface", "1,0", "--box", "1"],
        "h1-center", "d(preimage) = [z]"),
    "linext": ("""
functional = verify._integer_functional
verify._integer_functional = lambda spec, coeffs: (
    lambda x: functional(spec, coeffs)(x) + x.coords[0] ** 2)
""", ["verify", "--suite", "linext", "--surface", "1,0", "--box", "1"],
        "linear-extension", "f(u+v) = f(u) + f(v) when <u, v> != 0"),
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


_PATCHED_HOMOTOPY = """
import json, sys
from fractions import Fraction
from unittest import mock
from goldman import verify
from goldman.cli import main

if not sys.flags.optimize:
    sys.exit("run with python -O")
out = {}
for name in sorted(verify._DEFAULT_HOMOTOPY):
    path = sys.argv[1] + "/" + name + ".json"
    with mock.patch.dict(verify._DEFAULT_HOMOTOPY, {name: Fraction(3, 2)}):
        code = main(["verify", "--suite", "outer", "--surface", "1,2",
                     "--grading", "1,1,1,0", "--box", "2", "--format", "json",
                     "--out", path])
    with open(path) as fh:
        out[name] = [code, json.load(fh)]
print(json.dumps(out))
"""


def test_a_patched_homotopy_coefficient_is_refuted_under_python_O(tmp_path):
    # Any one of the five fixed coefficients changed: the identity fails
    # and the entry is refuted; nothing fits the coefficients again.
    script = tmp_path / "patched.py"
    script.write_text(_PATCHED_HOMOTOPY)
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", str(script), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(runs) == sorted(verify._DEFAULT_HOMOTOPY)
    for name, (code, report) in runs.items():
        (entry,) = report["results"]
        assert code == 1, name
        assert entry["check"] == "outer-exactness"
        assert entry["verdict"] == "refuted", name
        assert entry["details"]["note"] == "homotopy identity failed"
        per_y = entry["details"]["per_y"]
        assert len(per_y) == 2
        assert not any(e["identity_holds"] for e in per_y), name
        assert all(set(e) == {"y", "wedges_checked", "identity_holds"} for e in per_y)


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
        "linear-extension": {"spec": "Z", "box": 1, "seed": 0, "trials": 120}}
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
    # refusing (in forked workers too), the report is the same.
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


def test_seed_changes_sampling_not_verdict(capsys):
    outs = []
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--suite", "linext",
                           "--surface", "1,0", "--seed", seed,
                           "--format", "json")
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["results"][0]["verdict"] == "certified"
    assert outs[0]["config"]["seed"] == 1
    assert outs[1]["config"]["seed"] == 2
