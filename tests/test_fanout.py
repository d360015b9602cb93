"""Every unit of a command runs in one pool of forked workers, one per
usable CPU (``verify.fan_out``, with the pool in ``goldman.pool``).

The worker count comes from ``os.sched_getaffinity``; patching it to
{0, 1} forces the pooled path and {0} the serial one, so a one-CPU host
exercises both.  The ``cpus`` fixture also counts the workers forked
from this process.  Scripts that must not hang the suite, or that need
a real stdout, run in a subprocess with a timeout.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from goldman import cli, surface_presentation, verify
from goldman.cli import main
from goldman.verify import ContractingHomotopy, fan_out, main_theorem_check

from conftest import symplectic_z2

SRC = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the affinity mask n CPUs wide and returns the list
    of worker pids forked here from then on."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks
    return set_cpus


@pytest.fixture
def chunks(monkeypatch):
    """The (start, stop) chunks fan_out hands to its workers."""
    sent = []
    write = os.write

    def recording_write(fd, data):
        m = re.fullmatch(rb"(\d+) (\d+)\n", bytes(data))
        if m:
            sent.append((int(m.group(1)), int(m.group(2))))
        return write(fd, data)

    monkeypatch.setattr(os, "write", recording_write)
    return sent


def _run_subprocess(script):
    # Without PYTHONUNBUFFERED, stdout to a pipe is block-buffered, so an
    # unflushed write is still pending when a worker forks.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", script], env=dict(env, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--surface", "1,2", "--box", "2", "--format", "json"],
    ["homology", "--surface", "1,2", "--box", "2", "--format", "json"]],
    ids=["verify", "homology"])
def test_pooled_and_serial_runs_give_the_same_bytes(argv, cpus, capsys):
    reports = {}
    for n in (2, 1):
        forks = cpus(n)
        assert main(argv) == 0
        reports[n] = capsys.readouterr().out
        assert _no_child_left()
        # One pool of two workers, or none.
        assert len(forks) == (2 if n == 2 else 0)
    assert reports[2] == reports[1]


def test_verify_all_forks_two_workers_once_after_planning_here(cpus, monkeypatch, capsys):
    # The first run_*_suite call, where bench/probe.py stamps its first
    # call, happens in this process before any worker is forked; every
    # unit of every suite then goes into one queue, heaviest suites
    # first.
    forks = cpus(2)
    first = []
    for name in [n for n in vars(cli) if n.startswith("run_") and n.endswith("_suite")]:
        runner = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _run=runner, **kw: (
            first or first.append((os.getpid(), len(forks))), _run(*a, **kw))[1])
    queues = []
    pooled = cli.fan_out
    monkeypatch.setattr(cli, "fan_out", lambda fn, items: (
        queues.append(len(items)), pooled(fn, items))[1])
    assert main(["verify", "--suite", "all", "--surface", "2,3", "--box", "1",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert first == [(os.getpid(), 0)]
    assert len(forks) == 2 and _no_child_left()
    # Six whole suites, and one unit per outer, omega and inner grading.
    graded = [r for r in report["results"]
              if r["check"] in ("outer-exactness", "omega-class", "inner-isomorphism")]
    assert queues == [6 + len(graded)]
    assert [r["check"] for r in report["results"]][:2] == ["bracket-axioms",
                                                           "complex-squares-to-zero"]


def test_the_queue_goes_heaviest_suites_first(monkeypatch):
    order = []

    def graded(name):
        return lambda spec, gradings, box, fan, proofs: fan(
            lambda z: (order.append((name, z)), cli.CheckResult(name, {}, "certified", {}))[1],
            [1, 2])

    monkeypatch.setattr(cli, "run_inner_suite", graded("inner"))
    monkeypatch.setattr(cli, "run_outer_suite", graded("outer"))
    monkeypatch.setattr(cli, "run_omega_suite", graded("omega"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["verify", "--suite", "all", "--surface", "1,1", "--box", "1",
                 "--format", "json"]) in (0, 2)
    assert order == [("inner", 1), ("inner", 2), ("outer", 1), ("outer", 2),
                     ("omega", 1), ("omega", 2)]


def test_results_keep_input_order_and_nesting_stays_in_the_worker(cpus):
    forks = cpus(2)
    parent = os.getpid()
    pids = fan_out(lambda x: (x, os.getpid(), fan_out(lambda y: os.getpid(), [1, 2])),
                   list(range(5)))
    assert len(forks) == 2
    assert [x for x, _, _ in pids] == list(range(5))
    assert all(pid != parent and inner == [pid, pid] for _, pid, inner in pids)
    assert _no_child_left()


def test_one_unit_or_one_cpu_runs_in_this_process(cpus, monkeypatch):
    forks = cpus(2)
    assert fan_out(lambda x: os.getpid(), [0]) == [os.getpid()]
    forks = cpus(1)
    assert fan_out(lambda x: os.getpid(), [0, 1]) == [os.getpid()] * 2
    # A platform without an affinity mask runs serially.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert fan_out(lambda x: os.getpid(), [0, 1]) == [os.getpid()] * 2
    assert forks == []


def test_sixty_four_units_go_in_chunks_and_keep_their_order(cpus, chunks):
    forks = cpus(2)
    parent = os.getpid()
    out = fan_out(lambda x: (x, os.getpid()), list(range(64)))
    assert [x for x, _ in out] == list(range(64))
    assert parent not in {pid for _, pid in out}
    # (units left) // 16 units a chunk on 2 workers, at least 1, in order.
    want, start = [], 0
    while start < 64:
        want.append((start, start + max(1, (64 - start) // 16)))
        start = want[-1][1]
    assert chunks == want and want[:3] == [(0, 4), (4, 7), (7, 10)] and len(want) == 44
    # A queue of golden's size goes out one unit at a time.
    chunks.clear()
    assert fan_out(lambda x: x * x, list(range(20))) == [x * x for x in range(20)]
    assert chunks == [(i, i + 1) for i in range(20)]
    assert len(forks) == 4

    forks = cpus(1)
    assert fan_out(lambda x: (x, os.getpid()), list(range(64))) == [
        (x, parent) for x in range(64)]
    assert forks == []


def test_results_larger_than_a_pipe_come_back_whole(cpus):
    forks = cpus(2)
    # Each worker sends well over 64 KiB per chunk and in total.
    out = fan_out(lambda x: bytes([x]) * 300_000, list(range(6)))
    assert out == [bytes([x]) * 300_000 for x in range(6)]
    assert len(forks) == 2 and _no_child_left()


def test_twenty_thousand_tiny_units_on_more_workers_than_cores(cpus, chunks):
    forks = cpus(8)
    start = time.monotonic()
    assert fan_out(lambda x: x * x, list(range(20_000))) == [x * x for x in range(20_000)]
    assert time.monotonic() - start < 60
    assert len(forks) == 8 and _no_child_left()
    # Every unit went out once, in few chunks.
    assert sorted(chunks) == chunks and chunks[-1][1] == 20_000
    assert sum(stop - start for start, stop in chunks) == 20_000
    assert len(chunks) < 1000


def test_the_earliest_failing_unit_is_raised_and_no_child_is_left(cpus, tmp_path):
    def unit(x):
        if x == 37:
            raise ValueError("unit %d failed" % x)
        return x
    forks = cpus(2)
    with pytest.raises(ValueError, match="^unit 37 failed$"):
        fan_out(unit, list(range(64)))
    assert len(forks) == 2 and _no_child_left()

    # Unit 0 fails after unit 1 has failed in the other worker; the
    # caller sees unit 0's error, as in a serial run.
    def slow_first(x):
        if x == 0:
            time.sleep(0.3)
        raise KeyError("unit %d" % x)
    for n in (2, 1):
        cpus(n)
        with pytest.raises(KeyError, match="unit 0"):
            fan_out(slow_first, [0, 1, 2, 3])
        assert _no_child_left()

    # After a unit fails, no further chunk is handed out.
    def marked(x):
        (tmp_path / str(x)).touch()
        if x == 0:
            raise ValueError("unit 0")
        time.sleep(0.05)
    cpus(2)
    with pytest.raises(ValueError):
        fan_out(marked, list(range(40)))
    assert len(list(tmp_path.iterdir())) < 10 and _no_child_left()


def test_refuted_gradings_stay_in_their_slots(cpus, monkeypatch):
    phi2_keys = ContractingHomotopy.phi2_keys
    monkeypatch.setattr(ContractingHomotopy, "phi2_keys", lambda self, terms: {
        key: 2 * c for key, c in phi2_keys(self, terms).items()})
    z2 = symplectic_z2()
    zs = [z2.element(c) for c in ([1, 0], [0, 1], [1, 1])]
    s = surface_presentation(1, 2)
    gradings = [s.element(c) for c in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0])]
    runs = {}
    for n in (2, 1):
        forks = cpus(n)
        outer = cli.run_outer_suite(z2, zs, 1)
        theorem = main_theorem_check(s, gradings, 1)
        # Two pools of two workers when the runners are called directly.
        assert len(forks) == (4 if n == 2 else 0)
        runs[n] = [r.to_dict() for r in outer + theorem]
    assert runs[2] == runs[1]
    outer, theorem = runs[2][:3], runs[2][3:]
    assert [r["params"]["z"] for r in outer] == [[1, 0], [0, 1], [1, 1]]
    assert all(r["verdict"] == "refuted"
               and r["details"] == {"failed_identity": "d(Phi_2(c)) = c"} for r in outer)
    assert [r["verdict"] for r in theorem] == ["refuted", "certified", "refuted"]
    assert theorem[1]["details"]["component"] == "inner"


def test_an_error_in_one_unit_is_raised_in_the_caller(cpus, monkeypatch):
    certify = cli.outer_h2_certify

    def broken(spec, z, box, proofs):
        if z.coords == (0, 1):
            raise ValueError("no homotopy for z = %s" % (list(z.coords),))
        return certify(spec, z, box, proofs)

    monkeypatch.setattr(cli, "outer_h2_certify", broken)
    z2 = symplectic_z2()
    zs = [z2.element(c) for c in ([1, 0], [0, 1], [1, 1])]
    messages = []
    for n in (2, 1):
        cpus(n)
        with pytest.raises(ValueError) as info:
            cli.run_outer_suite(z2, zs, 1)
        messages.append(str(info.value))
        assert _no_child_left()
    assert messages == ["no homotopy for z = [0, 1]"] * 2


_DYING_WORKER = """
import os, sys, time
from goldman import cli, GroupSpec

os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()
certify = cli.outer_h2_certify

def dying(spec, z, box, proofs):
    # In the workers, the first grading ends its worker and the second
    # runs long; the long one is killed, not waited for.
    if os.getpid() != parent:
        os._exit(1) if z.coords == (1, 0) else time.sleep(60)
    return certify(spec, z, box, proofs)

cli.outer_h2_certify = dying
z2 = GroupSpec(2, form=[[0, 1], [-1, 0]])
start = time.monotonic()
try:
    cli.run_outer_suite(z2, [z2.element([1, 0]), z2.element([0, 1])], 1)
except RuntimeError as exc:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child is left")
    except ChildProcessError:
        print("raised:", exc, time.monotonic() - start < 30)
"""


def test_a_dying_worker_raises_instead_of_hanging():
    proc = _run_subprocess(_DYING_WORKER)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"raised: fan_out worker \d+ died True\n", proc.stdout), proc.stdout


_EARLY_OUTPUT = """
import os, sys
from goldman.cli import main

os.sched_getaffinity = lambda pid: {0, 1}
sys.stdout.write("written before the run\\n")
sys.exit(main(["verify", "--suite", "outer", "--surface", "1,0", "--box", "1",
               "--format", "json"]))
"""


def test_output_written_before_a_pooled_run_appears_once():
    proc = _run_subprocess(_EARLY_OUTPUT)
    assert proc.returncode == 0, proc.stderr
    head, report = proc.stdout.split("\n", 1)
    assert head == "written before the run"
    assert len(json.loads(report)["results"]) > 1


def test_a_single_grading_run_imports_no_process_pool():
    proc = _run_subprocess(
        "import os, sys\nfrom goldman.cli import main\n"
        "forks, fork = [], os.fork\nos.fork = lambda: forks.append(1) or fork()\n"
        "main(['verify', '--suite', 'inner', '--surface', '1,0', '--box', '1',"
        " '--grading', '0,0', '--format', 'json'])\n"
        "print(len(forks), sorted(m for m in sys.modules if m == 'goldman.pool' or"
        " m.split('.')[0] in ('pickle', 'select', 'multiprocessing', 'concurrent')))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
