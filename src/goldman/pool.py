"""The fork-and-pipe worker pool of ``goldman.verify.fan_out``, imported
only when a command forks: a one-unit run loads neither it nor pickle."""

import os
import pickle
import select
import signal

_IN_WORKER = False   # True in a forked worker, where fan_out runs serially


def fan_out(fn, items, workers):
    """[fn(x) for x in items] in forked workers, which inherit fn and items and
    get the next chunk ((units left) // (8 workers) units, at least 1) as they
    send back pickled results.  The earliest failing unit's exception is
    re-raised, a dead worker raises RuntimeError; every worker is reaped."""
    if _IN_WORKER:
        return [fn(x) for x in items]

    def work(tasks, results):
        # Pickles (start, results, exception or None) per chunk; never returns.
        global _IN_WORKER
        try:
            _IN_WORKER = True
            for res, (_, task, _) in pool.items():
                os.close(res)
                os.close(task)
            with os.fdopen(tasks, "rb") as rd, os.fdopen(results, "wb") as wr:
                for line in rd:
                    start, stop = map(int, line.split())
                    done, exc = [], None
                    try:
                        for i in range(start, stop):
                            done.append(fn(items[i]))
                    except Exception as e:
                        exc = e
                    try:
                        data = pickle.dumps((start, done, exc))
                    except Exception as e:   # a result that cannot be pickled
                        data = pickle.dumps((start, [], e))
                    wr.write(data)
                    wr.flush()
            os._exit(0)
        finally:
            os._exit(1)

    n, out, errors, queued = len(items), [None] * len(items), [], 0
    pool, busy = {}, set()   # result pipe -> [pid, task pipe, result file]
    try:
        for _ in range(workers):
            (task_r, task_w), (res_r, res_w) = os.pipe(), os.pipe()
            pool[res_r] = [None, task_w, os.fdopen(res_r, "rb")]
            try:
                pool[res_r][0] = os.fork() or work(task_r, res_w)
            finally:
                os.close(task_r)
                os.close(res_w)
        ready = list(pool)
        while ready or busy:
            for res in ready:
                if queued < n and not errors:
                    stop = queued + max(1, (n - queued) // (8 * workers))
                    os.write(pool[res][1], b"%d %d\n" % (queued, stop))
                    busy.add(res)
                    queued = stop
            ready = select.select(list(busy), [], [])[0] if busy else []
            for res in ready:
                try:
                    start, results, exc = pickle.load(pool[res][2])
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError("fan_out worker %d died" % pool[res][0]) from None
                busy.discard(res)
                out[start:start + len(results)] = results
                if exc is not None:
                    errors.append((start + len(results), exc))
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return out
    finally:
        for res, (pid, task, results) in pool.items():
            results.close()
            os.close(task)   # an idle worker reads the end of its tasks and exits
            if res in busy:
                os.kill(pid, signal.SIGKILL)
            if pid is not None:
                os.waitpid(pid, 0)
