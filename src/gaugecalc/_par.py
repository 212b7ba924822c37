"""Ordered map over independent items, on up to two CPUs.

The coarse loops (verifier points, gauge samples, sequence members) go
through `parallel_map`, so they can be timed or replaced in one place.

The rule.  Items run in order in this process while the work still ahead,
estimated as (mean time of the items done) x (items left), is below
_FORK_AFTER_S.  Once the estimate reaches it, one child is forked with
`os.fork` and a pipe: the child computes every other remaining item and
writes the pickled list of its results back; this process computes the
others, reads the pipe, reaps the child and merges the two halves in input
order.  A cheap map never pays for a fork (one round trip costs about
3 ms), and a map whose first items are cheap still forks once later items
show that it is heavy.  The map stays serial when only one CPU is available
to the process, when there is no `os.fork`, for fewer than three items,
while another thread is alive (a fork copies only the calling thread, so
a lock held by another one would never be released in the child), and
inside a map that has already forked (in the child, and in this process
while the child is out), so at most two processes are ever busy.

The purity contract.  fn(item) must give the same result in any process,
and nothing may rest on its side effects: what the child changes (caches,
counters, attributes of shared objects, unflushed output) is lost when it
exits.  Under that contract the result is bit-identical to the serial loop,
whatever the timing and the number of CPUs.  The child's results cross the
pipe pickled; a result that does not pickle makes the map compute the rest
here.

Errors.  If either half raises, or the child's results do not come back,
the remaining items are computed again here, in order, so the first
exception in input order surfaces as it does from the serial loop.  The
child always ends with `os._exit`, and the parent kills and reaps it in a
`finally`, so no process outlives a call.

Why a fork and not a `multiprocessing.Pool`: the child inherits fn and the
items (closures over parsed expressions, tables, controls) with the
address space, so nothing is pickled on the way in and no worker is started
ahead of need; and exactly two processes are busy, the one that called the
map and its child, so the map never competes with its own caller for a CPU.
"""

import os
import signal
import threading
import time

_FORK_AFTER_S = 0.05


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_WORKERS = min(2, _cpus())
_busy = False  # a child is out, or this process is one


def parallel_map(fn, items):
    """[fn(item) for item in items], in order (see the module docstring)."""
    items = list(items)
    if len(items) < 3 or _WORKERS < 2 or _busy or not hasattr(os, "fork"):
        return [fn(it) for it in items]
    out = []
    start = time.perf_counter()
    for it in items:
        out.append(fn(it))
        done, left = len(out), len(items) - len(out)
        if (left >= 2
                and (time.perf_counter() - start) * left >= _FORK_AFTER_S * done
                and threading.active_count() == 1):
            return out + _split(fn, items[done:])
    return out


def _split(fn, rest):
    """fn over rest: rest[1::2] in a forked child, rest[::2] here."""
    global _busy
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return [fn(it) for it in rest]
    if pid == 0:
        code = 1
        try:
            _busy = True
            os.close(r)
            data = pickle.dumps([fn(it) for it in rest[1::2]],
                                pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    _busy = True
    theirs = None
    try:
        with open(r, "rb") as pipe:
            try:
                mine = [fn(it) for it in rest[::2]]
                data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                pid = 0
                if status == 0:
                    theirs = pickle.loads(data)
            except Exception:
                pass  # the serial loop below raises the first failure in order
    finally:
        _busy = False
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if theirs is None:
        return [fn(it) for it in rest]
    out = [None] * len(rest)
    out[::2], out[1::2] = mine, theirs
    return out
