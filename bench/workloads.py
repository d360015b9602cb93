"""The benchmark's workloads: the goldman command each one runs, and the
correctness gate its report must pass before any number is recorded.

A gate returns (units, failed, problems): the units the report should
hold, how many of them failed their check, and a line per failure.
"""

import json
import os

GOLDEN_FILE = os.path.join("tests", "golden", "verify_all_surface23_box2_seed1.json")
Z2_GROUP = {"generators": 2, "form": [[0, 1], [-1, 0]]}
Z2_FILE = os.path.join(".bench_out", "groups", "z2.json")

# Suites whose results depend on --seed; the others must match the
# golden report exactly at any seed.
SEEDED_CHECKS = ("bracket-axioms", "complex-squares-to-zero", "linear-extension")


def _load(report):
    try:
        return json.loads(report)
    except ValueError:
        return None


def _status_problems(doc, status):
    problems = []
    if status != 0:
        problems.append("exit status %s" % status)
    if doc.get("exit_status") != 0:
        problems.append("report exit_status %r" % doc.get("exit_status"))
    return problems


class Golden:
    name = "golden"
    why = ("the byte-gated report; outer homotopy and omega scans, "
           "many independent suites")
    box = 2

    def argv(self, seed, box):
        return ["verify", "--suite", "all", "--surface", "2,3", "--box", str(box),
                "--seed", str(seed), "--format", "json"]

    def prepare(self, root):
        with open(os.path.join(root, GOLDEN_FILE), "rb") as fh:
            self.golden_bytes = fh.read()
        self.golden = json.loads(self.golden_bytes)

    def gate(self, report, status, seed, box):
        doc = _load(report)
        expected = self.golden["results"] if box == self.box else None
        if doc is None:
            units = len(expected) if expected is not None else 1
            return units, units, ["report is not JSON"]
        results = doc.get("results", [])
        if status == 0 and seed == 1 and box == self.box and report == self.golden_bytes:
            return len(results), 0, []
        problems = _status_problems(doc, status)
        failed = 0
        if expected is None:
            # Not the golden instance (self-test sizes): verdict invariants.
            units = max(len(results), 1)
            for r in results:
                if r.get("verdict") not in ("certified", "not-applicable"):
                    failed += 1
                    problems.append("%s: verdict %s" % (r.get("check"), r.get("verdict")))
        else:
            units = max(len(results), len(expected))
            for i in range(units):
                got = results[i] if i < len(results) else None
                want = expected[i] if i < len(expected) else None
                why = _golden_mismatch(got, want, exact=(seed == 1))
                if why:
                    failed += 1
                    problems.append("result %d: %s" % (i, why))
            config = dict(self.golden["config"], seed=seed)
            if doc.get("config") != config:
                problems.append("config differs from the golden run's")
            if seed == 1 and not problems:
                problems.append("report bytes differ from %s" % GOLDEN_FILE)
        if problems and not failed:
            failed = units
        return units, failed, problems


def _golden_mismatch(got, want, exact):
    """Why result got fails against the golden result want, or None.

    At the golden seed every result must match exactly.  At another seed
    the sampled suites must keep their check and verdict, and every other
    result must still match exactly.
    """
    if got is None or want is None:
        return "missing" if got is None else "unexpected extra result"
    if got == want:
        return None
    if exact or want["check"] not in SEEDED_CHECKS:
        return "%s differs from the golden result" % want["check"]
    if got.get("check") != want["check"] or got.get("verdict") != want["verdict"]:
        return "%s gave %s %s" % (want["check"], got.get("check"), got.get("verdict"))
    return None


class InnerZ2:
    name = "inner-z2"
    why = ("one large inner certification on Z^2 at box 12; "
           "elimination-bound, a single unit")
    box = 12

    def argv(self, seed, box):
        return ["verify", "--suite", "inner", "--spec", Z2_FILE, "--grading", "0,0",
                "--box", str(box), "--seed", str(seed), "--format", "json"]

    def prepare(self, root):
        path = os.path.join(root, Z2_FILE)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(Z2_GROUP, fh)

    def gate(self, report, status, seed, box):
        doc = _load(report)
        if doc is None:
            return 1, 1, ["report is not JSON"]
        results = doc.get("results", [])
        problems = _status_problems(doc, status)
        if len(results) != 1:
            problems.append("%d results, expected 1" % len(results))
        units = max(len(results), 1)
        failed = 0
        for r in results:
            why = self._unit_problems(r, box)
            if why:
                failed += 1
                problems.extend(why)
        if problems and not failed:
            failed = units
        return units, failed, problems

    def _unit_problems(self, r, box):
        d = r.get("details", {})
        out = []
        if r.get("verdict") != "certified":
            out.append("verdict %s" % r.get("verdict"))
        cycles = d.get("cycle_wedges")
        if box == self.box and cycles != 312:
            out.append("cycle_wedges %r, expected 312" % cycles)
        if not isinstance(cycles, int) or not (
                d.get("boundary_rank") == d.get("kernel_of_f_dim") == cycles - 2):
            out.append("boundary_rank %r, kernel_of_f_dim %r, cycle_wedges %r"
                       % (d.get("boundary_rank"), d.get("kernel_of_f_dim"), cycles))
        if not d.get("quotient_dim") == d.get("space_dim") == 2:
            out.append("quotient_dim %r, space_dim %r"
                       % (d.get("quotient_dim"), d.get("space_dim")))
        if d.get("f_surjective_on_box") is not True:
            out.append("f_surjective_on_box %r" % d.get("f_surjective_on_box"))
        return out


class HomologyS12:
    name = "homology-s12"
    why = ("64 small gradings of surface(1,2) at box 3; "
           "fixed per-certification costs dominate")
    box = 3
    rows = 64

    def argv(self, seed, box):
        return ["homology", "--surface", "1,2", "--box", str(box),
                "--seed", str(seed), "--format", "json"]

    def prepare(self, root):
        pass

    def gate(self, report, status, seed, box):
        doc = _load(report)
        expected = self.rows if box == self.box else None
        if doc is None:
            units = expected or 1
            return units, units, ["report is not JSON"]
        table = doc.get("table", [])
        results = doc.get("results", [])
        problems = _status_problems(doc, status)
        if expected is not None and len(table) != expected:
            problems.append("%d rows, expected %d" % (len(table), expected))
        if len(results) != len(table):
            problems.append("%d results for %d rows" % (len(results), len(table)))
        units = max(len(table), expected or 1)
        failed = units - len(table)
        # One unit per grading: its table row and its result entry.
        for row, result in zip(table, results + [{}] * len(table)):
            if (row.get("verdict") != "certified" or result.get("verdict") != "certified"
                    or row.get("H2") != row.get("predicted")):
                failed += 1
                problems.append("z=%s: row %s, result %s, H2 %r, predicted %r" % (
                    row.get("z"), row.get("verdict"), result.get("verdict"),
                    row.get("H2"), row.get("predicted")))
        if problems and not failed:
            failed = units
        return units, failed, problems


WORKLOADS = {w.name: w for w in (Golden(), InnerZ2(), HomologyS12())}
