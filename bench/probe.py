"""Run one goldman command in this process and time it from the inside.

    python3 bench/probe.py --side OUT.json --mode full|setup|trace \
        --label WORKLOAD -- <goldman arguments>

The report goes to standard output, exactly as ``goldman.cli.main``
writes it.  The timings go to the side file as JSON:

* ``t_first``: CLOCK_MONOTONIC when the first certification call starts
  (the first ``run_*_suite`` runner of ``goldman.cli``, or
  ``main_theorem_check``);
* ``t_end``: CLOCK_MONOTONIC once ``main`` has returned and the report
  is flushed;
* ``status``: the exit status ``main`` returned.

The parent stamps the same clock before it spawns this process, so
set-up time is ``t_first`` minus that stamp.  ``--mode setup`` ends the
process at the first certification call.  ``--mode trace`` installs the
hooks of ``hooks.py`` first and adds their metrics and spans.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _mark_first_call(cli, on_first):
    """Wrap the certification entry points of cli; on_first runs once."""
    names = [n for n in vars(cli) if n.startswith("run_") and n.endswith("_suite")]
    names.append("main_theorem_check")
    fired = []

    def marked(fn):
        def wrapper(*args, **kwargs):
            if not fired:
                fired.append(True)
                on_first(time.monotonic())
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        fn = getattr(cli, name, None)
        if callable(fn):
            setattr(cli, name, marked(fn))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True)
    parser.add_argument("--mode", choices=("full", "setup", "trace"), required=True)
    parser.add_argument("--label", default="")
    parser.add_argument("goldman_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.goldman_args
    if argv and argv[0] == "--":
        argv = argv[1:]

    import goldman.cli as cli

    side = {"t_first": None}
    tracer = None
    if opts.mode == "trace":
        from hooks import Tracer
        tracer = Tracer(opts.label)
        tracer.install()

    def on_first(stamp):
        side["t_first"] = stamp
        if opts.mode == "setup":
            _write(opts.side, side)
            os._exit(0)   # the rest of the run is not needed

    _mark_first_call(cli, on_first)
    status = cli.main(argv)
    sys.stdout.flush()
    side["t_end"] = time.monotonic()
    side["status"] = status
    if tracer is not None:
        side["metrics"] = tracer.metrics()
        side["absent"] = tracer.absent
        side["spans"] = tracer.span_records()
    _write(opts.side, side)
    return status


if __name__ == "__main__":
    sys.exit(main())
