"""The gradings of a suite run in forked workers, one per usable CPU.

The worker count comes from ``os.sched_getaffinity``; patching it to
{0, 1} forces the pooled path and {0} the serial one, so a one-CPU host
exercises both.  Scripts that must not hang the suite, or that need a
real stdout, run in a subprocess with a timeout.
"""

import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from goldman import cli, surface_presentation, verify
from goldman.cli import main
from goldman.verify import ContractingHomotopy, fan_out, main_theorem_check

from conftest import symplectic_z2

SRC = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the affinity mask n CPUs wide and returns the list
    of pool sizes that fan_out starts from then on."""
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            pools.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        pools.clear()
        return pools
    return set_cpus


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
        pools = cpus(n)
        assert main(argv) == 0
        reports[n] = capsys.readouterr().out
        assert multiprocessing.active_children() == []
        assert (len(pools) > 0, set(pools) <= {2}) == (n == 2, True)
    assert reports[2] == reports[1]


def test_results_keep_input_order_and_nesting_stays_in_the_worker(cpus):
    pools = cpus(2)
    parent = os.getpid()
    pids = fan_out(lambda x: (x, os.getpid(), fan_out(lambda y: os.getpid(), [1, 2])),
                   list(range(5)))
    assert pools == [2]
    assert [x for x, _, _ in pids] == list(range(5))
    assert all(pid != parent and inner == [pid, pid] for _, pid, inner in pids)
    assert multiprocessing.active_children() == []


def test_one_unit_or_one_cpu_runs_in_this_process(cpus, monkeypatch):
    pools = cpus(2)
    assert fan_out(lambda x: os.getpid(), [0]) == [os.getpid()]
    pools = cpus(1)
    assert fan_out(lambda x: os.getpid(), [0, 1]) == [os.getpid()] * 2
    # A platform without an affinity mask runs serially.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert fan_out(lambda x: os.getpid(), [0, 1]) == [os.getpid()] * 2
    assert pools == []


def test_refuted_gradings_stay_in_their_slots(cpus, monkeypatch):
    phi2 = ContractingHomotopy.phi2
    monkeypatch.setattr(ContractingHomotopy, "phi2", lambda self, c: 2 * phi2(self, c))
    z2 = symplectic_z2()
    zs = [z2.element(c) for c in ([1, 0], [0, 1], [1, 1])]
    s = surface_presentation(1, 2)
    gradings = [s.element(c) for c in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0])]
    runs = {}
    for n in (2, 1):
        pools = cpus(n)
        outer = cli.run_outer_suite(z2, zs, 1)
        theorem = main_theorem_check(s, gradings, 1)
        assert len(pools) == (2 if n == 2 else 0)
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

    def broken(spec, z, box):
        if z.coords == (0, 1):
            raise ValueError("no homotopy for z = %s" % (list(z.coords),))
        return certify(spec, z, box)

    monkeypatch.setattr(cli, "outer_h2_certify", broken)
    z2 = symplectic_z2()
    zs = [z2.element(c) for c in ([1, 0], [0, 1], [1, 1])]
    messages = []
    for n in (2, 1):
        cpus(n)
        with pytest.raises(ValueError) as info:
            cli.run_outer_suite(z2, zs, 1)
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert messages == ["no homotopy for z = [0, 1]"] * 2


_DYING_WORKER = """
import multiprocessing, os, sys
from concurrent.futures.process import BrokenProcessPool
from goldman import cli, GroupSpec

os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()
certify = cli.outer_h2_certify
cli.outer_h2_certify = lambda *args: os._exit(1) if os.getpid() != parent else certify(*args)
z2 = GroupSpec(2, form=[[0, 1], [-1, 0]])
try:
    cli.run_outer_suite(z2, [z2.element([1, 0]), z2.element([0, 1])], 1)
except BrokenProcessPool:
    print("raised", len(multiprocessing.active_children()))
"""


def test_a_dying_worker_raises_instead_of_hanging():
    proc = _run_subprocess(_DYING_WORKER)
    assert (proc.returncode, proc.stdout) == (0, "raised 0\n"), proc.stderr


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
        "import sys\nfrom goldman.cli import main\n"
        "main(['verify', '--suite', 'inner', '--surface', '1,0', '--box', '1',"
        " '--grading', '0,0', '--format', 'json'])\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing',"
        " 'concurrent'))))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
