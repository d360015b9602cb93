"""Command-line front end: validate group files, tabulate truncated
homology, and run the certification suites.

Usage:

    goldman validate --spec group.json
    goldman homology --surface 1,2 --box 2
    goldman verify --suite all --surface 2,3 --box 2

A group file is a single JSON document, either an explicit presentation

    {"generators": 3,
     "relations": [[0, 0, 2]],
     "form": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}

(relations and form may be omitted; the form defaults to zero; every
count and entry must be a JSON integer, so 1.5, 2.0 and true are
rejected with their path; optional "names" is a list of strings, one
per generator; any other key is rejected) or the surface shorthand

    {"surface": {"genus": 2, "boundary": 3}}

`--surface g,r` is the same shorthand without a file.

Gradings are selected with `--grading`, which accepts semicolon
separated coordinate vectors in the original generators ("1,0,0;0,1,0"),
may be repeated, and understands the keyword `all-in-box`.  Without it
each command picks a small deterministic default: the zero grading,
radical generators that fit in the box, then the smallest derived
elements.  Suites that sweep gradings cap the sweep (the cap is recorded
in the report); explicit vectors are always run in full.

Reports are deterministic for a fixed config: no timestamps, dictionary
output is key-sorted, and suites are reported in a fixed order.  No
check samples (``bracket``, ``complex`` and ``linext`` are proved over
formal symbols, ``goldman.formal``), so ``--seed`` is only recorded.
A command runs in one process: each suite once, in report order, and
each grading once within its suite.  Exit status: 0 when nothing failed,
2 when some check was inconclusive at the truncation, 1 on a refuted
check or any error.
"""

import argparse
import contextlib
import functools
import itertools
import json
import re
import sys

from .algebra import AlgebraVector, bracket
from .complexes import _box_size, _check_box_budget, _key_boundary, _sort_sign, box_by_weight
from .formal import FormalSpec
from .groups import GroupSpec, surface_presentation
from .verify import (
    CERTIFIED,
    INCONCLUSIVE,
    INNER_SUPPORT_CAP,
    NOT_APPLICABLE,
    REFUTED,
    CertificateError,
    CheckResult,
    Proofs,
    _capped_radius,
    _certify_or_refute,
    _formal_check,
    _inner_params,
    gk_cycle_check,
    h1_check,
    inner_h2_certify,
    linear_extension_check,
    main_theorem_check,
    omega_check,
    outer_h2_certify,
    surface_generator_check,
)

SUITES = ("bracket", "complex", "inner", "outer", "gk", "surface",
          "omega", "h1", "linext")

# Per-suite grading caps for default and all-in-box sweeps.  Explicit
# --grading vectors bypass these.
SWEEP_CAPS = {"inner": 3, "outer": 12, "omega": 3, "gk": 2, "h1": 200}


# ---------------------------------------------------------------------------
# Config


class UsageError(Exception):
    pass


def _parse_int(token, where):
    """An optional sign and ASCII digits, after stripping; int() alone would
    also read "1_0" as 10, and non-ASCII digits."""
    token = token.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise UsageError("%s: %r is not an integer" % (where, token))
    return int(token)


def _parse_surface(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("--surface expects 'g,r'")
    return tuple(_parse_int(part, "--surface expects two integers 'g,r'") for part in parts)


def load_spec(args):
    """Build the group from --surface or --spec; returns (spec, source)."""
    if args.surface and args.spec:
        raise UsageError("give either --surface or --spec, not both")
    if args.surface:
        g, r = _parse_surface(args.surface)
        return surface_presentation(g, r), {"surface": {"genus": g, "boundary": r}}
    if not args.spec:
        raise UsageError("a group is required: --surface g,r or --spec <path>")
    try:
        with open(args.spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (args.spec, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("parse error in %s: %s (line %d, column %d)"
                         % (args.spec, exc.msg, exc.lineno, exc.colno))
    if not isinstance(data, dict):
        raise UsageError("group file must be a JSON object")
    _json_keys(data, ("generators", "relations", "form", "names", "surface"),
               "the group file")
    if "surface" in data:
        for key in data:
            if key != "surface":
                raise UsageError("surface shorthand stands alone; drop %s"
                                 % json.dumps(key))
        s = data["surface"]
        if not isinstance(s, dict) or not {"genus", "boundary"} <= s.keys():
            raise UsageError('surface shorthand needs {"genus": g, "boundary": r}')
        _json_keys(s, ("genus", "boundary"), "surface")
        g = _json_int(s["genus"], "surface.genus")
        r = _json_int(s["boundary"], "surface.boundary")
        return surface_presentation(g, r), {"surface": {"genus": g, "boundary": r}}
    if "generators" not in data:
        raise UsageError('group file needs "generators" or "surface"')
    relations = data.get("relations")
    if relations is not None:
        relations = _json_int_rows(relations, "relations")
    form = data.get("form")
    if form is not None:
        form = _json_int_rows(form, "form")
    names = data.get("names")
    if names is not None and not isinstance(names, list):
        raise UsageError("names must be a list of strings, got %s" % json.dumps(names))
    for i, name in enumerate(names or ()):
        if not isinstance(name, str):
            raise UsageError("names[%d] must be a string, got %s" % (i, json.dumps(name)))
    spec = GroupSpec(_json_int(data["generators"], "generators"),
                     relations=relations or (), form=form, names=names)
    return spec, {"file": args.spec}


def _json_keys(obj, known, where):
    """Reject the first key of a JSON object that is not in ``known``."""
    for key in obj:
        if key not in known:
            raise UsageError("unknown key %s in %s; expected %s"
                             % (json.dumps(key), where, ", ".join(known)))


def _json_int(value, path):
    """value when it is a JSON integer; anything else is rejected by path
    (Python reads JSON true as an int, so bools are refused by name)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError("%s must be an integer, got %s" % (path, json.dumps(value)))
    return value


def _json_int_rows(value, path):
    """A JSON list of integer rows, checked entry by entry."""
    if not isinstance(value, list):
        raise UsageError("%s must be a list of integer rows" % path)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise UsageError("%s[%d] must be a list of integers" % (path, i))
        rows.append([_json_int(v, "%s[%d][%d]" % (path, i, j))
                     for j, v in enumerate(row)])
    return rows


def parse_gradings(spec, grading_args):
    """Resolve --grading arguments; returns (elements or None, label).

    None means "use the command's default selection"; the string label
    is echoed in the report config.
    """
    if not grading_args:
        return None, "default"
    if any(a.strip() == "all-in-box" for a in grading_args):
        if len(grading_args) > 1:
            raise UsageError("all-in-box cannot be combined with explicit vectors")
        return "all-in-box", "all-in-box"
    picks = []
    for arg in grading_args:
        for chunk in arg.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            coords = [_parse_int(t, "bad grading vector %r" % chunk) for t in chunk.split(",")]
            if len(coords) != spec.n_generators:
                raise UsageError("grading %r needs %d coordinates"
                                 % (chunk, spec.n_generators))
            picks.append(spec.element(coords))
    if not picks:
        raise UsageError("empty grading selection")
    return picks, [list(x.coords) for x in picks]


def resolve_selection(spec, selection, radius, cap):
    """Turn the parse_gradings result into (picks, capped): the gradings
    of one suite, at most ``cap`` of them for a default or all-in-box
    sweep, and whether the sweep was cut.  Explicit vectors run in full.

    The sweeps take a prefix of the box in weight order (sorted once
    per box by ``box_by_weight``).  The default order is the zero, the
    radical generators g and 2g that lie in the box (four elements at
    most), then the derived elements by sort key; it is capped only when
    the radical head alone exceeds the cap.
    """
    if selection not in (None, "all-in-box"):
        return list(selection), False
    ordered = box_by_weight(spec, radius)
    if selection == "all-in-box":
        return ordered[:cap], len(ordered) > cap
    head = [spec.zero]
    for g in spec.kernel_basis_elements():
        for cand in (g, g + g):
            inside = all(abs(cand.coords[j]) <= radius for j in spec.free_indices)
            if inside and cand not in head and len(head) < 4:
                head.append(cand)
    derived = (x for x in ordered if x.is_derived_element())
    picks = head + list(itertools.islice(derived, max(cap - len(head), 0)))
    return picks[:cap], len(head) > cap


# ---------------------------------------------------------------------------
# Formal suites: the raw algebra's identities, proved once over symbols
# (goldman.formal) through the production bracket and differential


def run_bracket_suite():
    """Skew-symmetry, Jacobi and bilinearity of ``bracket`` on three
    formal symbols."""
    a, b, c = (AlgebraVector.basis(e) for e in FormalSpec(3).symbols())
    s = 2 * a + 3 * b
    return _certify_or_refute("bracket-axioms", dict, _formal_check, "bracket-axioms", {}, [
        ("[a, b] + [b, a] = 0", (bracket(a, b) + bracket(b, a)).is_zero()),
        ("[a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0", (
            bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))).is_zero()),
        ("[2a + 3b, c] = 2[a, c] + 3[b, c]", bracket(s, c) == 2 * bracket(a, c) + 3 * bracket(b, c)),
        ("[c, 2a + 3b] = 2[c, a] + 3[c, b]", bracket(c, s) == 2 * bracket(c, a) + 3 * bracket(c, b)),
    ])


def run_complex_suite():
    """d o d = 0 through ``_key_boundary`` on formal wedges: a generic
    p-wedge, p symbols, for p = 2..6 (the unrolled degrees and the
    loop), and every wedge of degree 2..5 with factors in box(1) of two
    symbols, where a sum can meet a remaining factor.  Then the key
    normal form: ``_sort_sign`` on every p-tuple of p symbols, p = 3..5
    (the sorting network and the insertion sort), against the sign
    counted from inversions, and (0, None) for a repeat anywhere."""
    generic, plane = FormalSpec(6), FormalSpec(2)
    units = sorted(e.coords for e in generic.symbols())
    box1 = sorted(c for c in itertools.product((-1, 0, 1), repeat=2) if any(c))

    def squares_to_zero(spec, keys):
        return not any(_key_boundary(spec, _key_boundary(spec, {key: 1})) for key in keys)

    def sorted_with_sign(t):
        if len(set(t)) < len(t):
            return 0, None
        return (-1) ** sum(x > y for x, y in itertools.combinations(t, 2)), tuple(sorted(t))
    return _certify_or_refute("complex-squares-to-zero", dict, _formal_check,
                              "complex-squares-to-zero", {}, [
        *(("d(d(w)) = 0 on %d-wedges" % p, squares_to_zero(generic, [tuple(units[:p])])
           and (p > 5 or squares_to_zero(plane, itertools.combinations(box1, p))))
          for p in range(2, 7)),
        ("_sort_sign = (sign of the permutation, sorted), or (0, None) on a repeat",
         all(_sort_sign(t) == sorted_with_sign(t)
             for p in range(3, 6) for t in itertools.product(units[:p], repeat=p)))])


# ---------------------------------------------------------------------------
# Certification suite drivers


def _skip(check, note, spec, box=None):
    params = {"spec": spec.label} | ({} if box is None else {"box": box})
    return CheckResult(check, params, NOT_APPLICABLE, {"note": note})


def _graded(check, certify, spec, z, box, proofs):
    """_certify_or_refute for a certify(spec, z, box, proofs) on one grading."""
    return _certify_or_refute(
        check, lambda: {"spec": spec.label, "z": list(z.coords), "box": box},
        certify, spec, z, box, proofs)


def run_inner_suite(spec, gradings, box, proofs=None):
    if spec.mu_is_zero():
        return [_skip("inner-isomorphism", "the form vanishes; no wedge is derived", spec, box)]
    zs = [z for z in gradings if z.in_kernel_mu()]
    if not zs:
        return [_skip("inner-isomorphism", "no radical gradings selected", spec, box)]
    # Gradings outside the capped support cannot receive any ideal
    # column (every candidate leaves the box), so report them as out of
    # reach instead of scanning to a foregone inconclusive.
    eff = _capped_radius(spec, box, INNER_SUPPORT_CAP)
    out = []
    skipped = [list(z.coords) for z in zs
               if any(abs(z.coords[j]) > eff for j in spec.free_indices)]
    if skipped:
        out.append(CheckResult(
            "inner-isomorphism", {"spec": spec.label, "box": box}, NOT_APPLICABLE,
            {"note": "grading outside the inner cycle box of radius %d, the largest within "
                     "--box and INNER_SUPPORT_CAP = %d elements" % (eff, INNER_SUPPORT_CAP),
             "skipped_gradings": skipped, "effective_radius": eff}))
    out.extend(_certify_or_refute(
        "inner-isomorphism", functools.partial(_inner_params, spec, z, box),
        _inner_entry, spec, z, box, proofs) for z in zs if list(z.coords) not in skipped)
    return out


def _inner_entry(spec, z, box, proofs):
    inner = inner_h2_certify(spec, z, box, proofs)
    inner.result.details["identities"] = inner.identities
    return inner.result


def run_outer_suite(spec, gradings, box, proofs=None):
    zs = [z for z in gradings if z.is_derived_element()]
    if not zs:
        return [_skip("outer-exactness", "no derived gradings selected", spec, box)]
    return [_graded("outer-exactness", outer_h2_certify, spec, z, box, proofs) for z in zs]


def run_gk_suite(spec, gradings, box):
    u = next((x for x in box_by_weight(spec, box) if x.is_derived_element()), None)
    if u is None:
        return [_skip("gk-cycle", "the form vanishes; g_K is everything", spec, box)]
    zs = [z for z in gradings if z.in_kernel_mu()]
    if not zs:
        zs = [spec.zero]
    return [_certify_or_refute(
        "gk-cycle", lambda z=z: {"u": list(u.coords), "z": list(z.coords), "box": box},
        gk_cycle_check, spec, u, z, box) for z in zs]


def run_omega_suite(spec, gradings, box, proofs=None):
    if spec.mu_is_zero():
        return [_skip("omega-class", "the form vanishes; omega is identically zero", spec, box)]
    zs = [z for z in gradings if z.in_kernel_mu()]
    if not zs:
        return [_skip("omega-class", "no radical gradings selected", spec, box)]
    return [_graded("omega-class", omega_check, spec, z, box, proofs) for z in zs]


def run_h1_suite(spec, gradings, box, proofs=None):
    """h1 on the given gradings, or on the whole box when None."""
    count = len(gradings) if gradings is not None else _box_size(spec, box)
    return [_certify_or_refute(
        "h1-center", lambda: {"spec": spec.label, "box": box, "gradings": count},
        h1_check, spec, box, gradings, proofs)]


def run_surface_suite(spec, source):
    if "surface" not in source:
        return [_skip("surface-generators",
                      "needs a --surface group (boundary classes are read off g, r)", spec)]
    g, r = source["surface"]["genus"], source["surface"]["boundary"]
    if g < 1:
        return [_skip("surface-generators",
                      "the decomposition uses A_g; needs genus >= 1", spec)]
    return [_certify_or_refute(
        "surface-generators",
        lambda: {"genus": g, "boundary_components": r, "z": [0] * (2 * g + r)},
        surface_generator_check, g, r)]


def run_linext_suite(spec, box):
    return [_certify_or_refute("linear-extension", lambda: {"spec": spec.label, "box": box},
                               linear_extension_check, spec, box)]


def build_verify_tasks(spec, source, args, selection):
    """One (name, run) per suite, in report order, and the report notes.

    run() gives the suite's results; it looks its runner up in this
    module when called, so a runner patched here is the one that runs.
    Each sweeping suite takes its gradings from resolve_selection at its
    own cap; inner, outer, omega and h1 cite one ``Proofs``.
    """
    suites = SUITES if args.suite == "all" else (args.suite,)
    swept = selection in (None, "all-in-box")
    # h1 sweeps the whole box unless the box outgrows its cap.
    h1_capped = swept and _box_size(spec, args.box) > SWEEP_CAPS["h1"]
    caps = {name: SWEEP_CAPS[name] for name in suites
            if name in ("inner", "outer", "omega", "gk")
            or (name == "h1" and h1_capped)}
    picks, notes = {}, {}
    for name, cap in caps.items():
        picks[name], capped = resolve_selection(spec, selection, args.box, cap)
        if capped or name == "h1":
            notes[name] = {"gradings_capped_at": cap}
    h1_gradings = picks.get("h1", None if swept else list(selection))
    proofs = Proofs()
    runs = {
        "bracket": lambda: [run_bracket_suite()],
        "complex": lambda: [run_complex_suite()],
        "inner": lambda: run_inner_suite(spec, picks["inner"], args.box, proofs),
        "outer": lambda: run_outer_suite(spec, picks["outer"], args.box, proofs),
        "gk": lambda: run_gk_suite(spec, picks["gk"], args.box),
        "omega": lambda: run_omega_suite(spec, picks["omega"], args.box, proofs),
        "h1": lambda: run_h1_suite(spec, h1_gradings, args.box, proofs),
        "surface": lambda: run_surface_suite(spec, source),
        "linext": lambda: run_linext_suite(spec, args.box),
    }
    return [(name, runs[name]) for name in suites], notes


# ---------------------------------------------------------------------------
# Rendering


def summarize(results):
    counts = {CERTIFIED: 0, REFUTED: 0, INCONCLUSIVE: 0, NOT_APPLICABLE: 0}
    for r in results:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    return {"certified": counts[CERTIFIED],
            "refuted": counts[REFUTED],
            "inconclusive": counts[INCONCLUSIVE],
            "not_applicable": counts[NOT_APPLICABLE]}


def exit_status(summary):
    if summary["refuted"]:
        return 1
    if summary["inconclusive"]:
        return 2
    return 0


def _fmt_scalar(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _result_lines(r):
    params = " ".join("%s=%s" % (k, _fmt_scalar(v))
                      for k, v in sorted(r["params"].items()))
    head = "[%s] %s" % (r["verdict"], r["check"])
    if params:
        head += " " + params
    lines = [head]
    scalars, nested = [], []
    for k, v in sorted(r["details"].items()):
        if isinstance(v, (bool, int, str)) and len(str(v)) <= 48:
            scalars.append("%s=%s" % (k, _fmt_scalar(v)))
        elif isinstance(v, (list, dict)):
            nested.append("%s=#%d" % (k, len(v)))
        else:
            nested.append("%s=..." % k)
    for chunk in (scalars, nested):
        if chunk:
            lines.append("    " + " ".join(chunk))
    return lines


def render_text(report):
    lines = ["== goldman %s ==" % report["command"]]
    cfg = report["config"]
    src = cfg["source"]
    if "surface" in src:
        lines.append("group: surface genus %d with %d boundary circles (%s)"
                     % (src["surface"]["genus"], src["surface"]["boundary"],
                        report["group"]["group"]))
    else:
        lines.append("group: %s (%s)" % (src.get("file", "inline"),
                                         report["group"]["group"]))
    opts = ["box=%d" % cfg["box"], "seed=%d" % cfg["seed"]]
    if "suite" in cfg:
        opts.append("suite=%s" % cfg["suite"])
    lines.append(" ".join(opts))
    lines.append("gradings: %s" % json.dumps(cfg["gradings"]))
    if report.get("notes"):
        for suite, note in sorted(report["notes"].items()):
            lines.append("note: %s %s" % (suite, json.dumps(note, sort_keys=True)))
    lines.append("")
    if "table" in report:
        rows = [("z", "Z2", "B2", "H2", "predicted", "verdict")]
        for row in report["table"]:
            rows.append((json.dumps(row["z"]),)
                        + tuple("-" if row[k] is None else str(row[k])
                                for k in ("Z2", "B2", "H2", "predicted"))
                        + (row["verdict"],))
        widths = [max(len(r[i]) for r in rows) for i in range(6)]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        if report.get("out_of_hypothesis"):
            lines.append("")
            lines.append("the form is identically zero: the boundary vanishes and"
                         " H2 is the whole wedge space; no prediction applies")
        lines.append("")
    for r in report["results"]:
        lines.extend(_result_lines(r))
    s = report["summary"]
    lines.append("")
    lines.append("summary: %d certified, %d refuted, %d inconclusive,"
                 " %d not applicable" % (s["certified"], s["refuted"],
                                         s["inconclusive"], s["not_applicable"]))
    return "\n".join(lines) + "\n"


def render_json(report, fh):
    """Stream the report to fh as indented JSON, so no string of the
    whole report is built."""
    json.dump(report, fh, indent=2, sort_keys=True)
    fh.write("\n")


def emit(report, args, fh):
    """Complete the report with its summary and exit status, write it to
    fh in the --format, and return the exit status."""
    report["summary"] = summarize(report["results"])
    report["exit_status"] = exit_status(report["summary"])
    if args.format == "json":
        render_json(report, fh)
    else:
        fh.write(render_text(report))
    return report["exit_status"]


@contextlib.contextmanager
def report_file(args):
    """The --out file (opened before any suite runs), named on stdout once
    written, else stdout; a path that cannot be opened is a UsageError."""
    if not args.out:
        yield sys.stdout
        return
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (args.out, exc.strerror or exc))
    with fh:
        yield fh
    print("report written to %s" % args.out)


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args):
    spec, source = load_spec(args)
    report = {
        "command": "validate",
        "config": {"source": source, "box": args.box, "seed": args.seed,
                   "gradings": "n/a"},
        "group": spec.describe(),
        "results": [],
    }
    d = report["group"]
    lines = ["== goldman validate ==",
             "group: %s" % d["group"],
             "free rank: %d" % d["free_rank"],
             "torsion: %s" % (", ".join(str(t) for t in d["torsion"]) or "none"),
             "form is zero: %s" % ("yes" if d["form_is_zero"] else "no"),
             "ker mu generators: %s" % (", ".join(d["kernel_mu_generators"]) or
                                        "none (form nondegenerate)"),
             "status: ok"]
    with report_file(args) as fh:
        if args.format == "json":
            return emit(report, args, fh)
        fh.write("\n".join(lines) + "\n")
    return 0


def _homology_row(result):
    d = result.details
    z = list(result.params["z"])
    if "failed_identity" in d:
        return {"z": z, "Z2": None, "B2": None, "H2": None,
                "predicted": None, "verdict": result.verdict}
    if result.verdict == NOT_APPLICABLE:
        return {"z": z, "Z2": d["h2_dim"], "B2": 0, "H2": d["h2_dim"],
                "predicted": None, "verdict": result.verdict}
    if d["component"] == "outer":
        return {"z": z, "Z2": d["cycle_dim"], "B2": d["cycle_dim"], "H2": 0,
                "predicted": 0, "verdict": result.verdict}
    return {"z": z, "Z2": d["wedges_full"], "B2": d["inner"]["boundary_rank"],
            "H2": d["h2_dim"], "predicted": d["predicted"],
            "verdict": result.verdict}


def cmd_homology(args):
    spec, source = load_spec(args)
    _check_box_budget(spec, args.box)
    selection, label = parse_gradings(spec, args.grading)
    with report_file(args) as fh:
        gradings, capped = resolve_selection(spec, selection, args.box, 64)
        results = main_theorem_check(spec, gradings, args.box)
        return emit({
            "command": "homology",
            "config": {"source": source, "box": args.box, "seed": args.seed,
                       "gradings": label},
            "group": spec.describe(),
            "notes": {"homology": {"gradings_capped_at": 64}} if capped else {},
            "table": [_homology_row(r) for r in results],
            "out_of_hypothesis": spec.mu_is_zero(),
            "results": [r.to_dict() for r in results],
        }, args, fh)


def cmd_verify(args):
    spec, source = load_spec(args)
    _check_box_budget(spec, args.box)
    selection, label = parse_gradings(spec, args.grading)
    with report_file(args) as fh:
        tasks, notes = build_verify_tasks(spec, source, args, selection)
        results = [r for _, run in tasks for r in run()]
        return emit({
            "command": "verify",
            "config": {"source": source, "box": args.box, "seed": args.seed,
                       "suite": args.suite, "gradings": label},
            "group": spec.describe(),
            "notes": notes,
            "results": [r.to_dict() for r in results],
        }, args, fh)


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1; status 2 is reserved for inconclusive runs."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="goldman",
        description="exact truncated homology certification for the "
                    "Goldman bracket on a finitely generated abelian group")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grading=True):
        p.add_argument("--spec", metavar="PATH", help="JSON group file")
        p.add_argument("--surface", metavar="G,R",
                       help="surface shorthand: genus,boundary")
        p.add_argument("--box", type=int, default=2, metavar="M",
                       help="truncation box radius (default 2)")
        if grading:
            p.add_argument("--grading", action="append", default=[], metavar="VECS",
                           help="semicolon separated coordinate vectors, or all-in-box")
        p.add_argument("--seed", type=int, default=0, metavar="N",
                       help="recorded in the report config; no check samples (default 0)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH", help="write the report here")

    common(sub.add_parser("validate", help="check a group file and print its structure"),
           grading=False)
    common(sub.add_parser("homology", help="truncated H2 table per grading"))
    p_verify = sub.add_parser("verify", help="run certification suites")
    common(p_verify)
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.box < 1:
            raise UsageError("--box must be at least 1")
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "homology":
            return cmd_homology(args)
        return cmd_verify(args)
    except (UsageError, ValueError, CertificateError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
