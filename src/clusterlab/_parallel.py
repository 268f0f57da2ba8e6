"""Independent items on every usable CPU: one fork-join map.

:func:`fork_map` computes ``fn(item)`` for every item and returns the
results in item order, exactly as ``[fn(item) for item in items]`` would.
It forks one child per extra usable CPU; the children read the parent's
arrays copy-on-write, so whatever ``fn`` needs is built before the call.
Every process, the parent included, runs one work loop, :func:`_work`: it
claims work from one ticket pipe until the pipe runs dry, so a busy CPU
takes fewer items, and stops at its first item that raises or warns. A child
then pickles its ``{index: result}`` once, into its own pipe, and the parent
unpickles it: the parent reads the pipes only when its own claims have
stopped too, so a child that wrote as it went would stall on its first
result larger than the pipe buffer and claim nothing more. It leaves by ``os._exit`` alone: it flushes
no inherited buffer, runs no atexit handler and writes nothing else.

Failure has no path of its own. After the join, the parent computes, in item
order, every item that no process delivered: an item that raised or warned,
the rest of the claims of the process it failed in, and every item of a child
that was killed or whose pickle does not load. So an item that fails
everywhere raises the serial path's own exception, and warnings reach stderr
as the serial path would print them.

One layer of parallelism. A forked worker would otherwise keep OpenBLAS's
own thread pool, so once a GEMM left OpenBLAS's small-matrix path, every
process would spread it over every CPU as well, and the processes' threads
would contend. :func:`_fork_join` therefore sets the loaded OpenBLAS to one
thread before it forks, so the parent and every child run their items on
one thread each, and restores the parent's count when the map ends, also
when an item raises. The library is found once per process, on the first
fork (:func:`_openblas`). With any other BLAS, or none, this is a no-op.

One layer of maps. No item of a map in this package calls :func:`fork_map`:
a caller whose work is itself a map, as ``pipeline.analyze`` runs Hopkins'
searches, lists that map's items among its own. So every map forks from the
process that called it, and no process runs two maps' items at once.
"""

import functools
import os
import pickle
import threading
import warnings

#: at most this many tickets, one byte each: one write that an empty pipe
#: always holds (POSIX guarantees PIPE_BUF >= 512 bytes)
_TICKETS = 256


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def fork_map(fn, items, cost=None) -> list:
    """``[fn(item) for item in items]``, the items shared among processes.

    ``cost(item)``, when given, orders the claims: the largest items go
    first, so that no process starts a long item last. The map stays in
    this one process when there is one usable CPU or one item, when the
    platform has no ``os.fork``, and when another Python thread is alive.
    Any item no process delivered is computed here, after the join, in
    item order. A call inside an item would fork again; no item in this
    package makes one.
    """
    items, done = list(items), {}
    children = min(_cpus(), len(items)) - 1
    if children > 0 and hasattr(os, "fork") and threading.active_count() == 1:
        order = list(range(len(items)))
        if cost is not None:
            order.sort(key=lambda i: -cost(items[i]))  # stable: ties keep item order
        _fork_join(fn, items, order, children, done)
    return [done[i] if i in done else fn(item) for i, item in enumerate(items)]


@functools.cache
def _openblas():
    """``(get, set)``, the loaded OpenBLAS's functions that read and set its
    thread count, called through ctypes; None when no OpenBLAS is loaded, it
    exports neither pair, or the platform has no ``/proc/self/maps``."""
    import ctypes  # only a run that forks needs it

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in (("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_set_num_threads64_"),
                          ("openblas_get_num_threads", "openblas_set_num_threads")):
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _fork_join(fn, items, order, children, done):
    """Fill ``done`` with ``{index: result}`` of what the parent and up to
    ``children`` forked processes compute; it may stay short of every item."""
    import signal  # only a run that forks needs it

    n, t = len(order), min(len(order), _TICKETS)
    batches = [order[b * n // t:(b + 1) * n // t] for b in range(t)]
    try:
        tickets, fill = os.pipe()
    except OSError:
        return  # no descriptors left: the caller computes every item
    blas = _openblas()
    threads = blas[0]() if blas else None
    pipes = {}  # child pid -> the read end of its result pipe
    parent = os.getpid()
    try:
        if blas:
            blas[1](1)  # before the forks: each child starts with one thread too
        try:
            os.write(fill, bytes(range(t)))
        finally:
            os.close(fill)  # the tickets are all there is: a drained pipe reads as empty
        for _ in range(children):
            try:
                reader, writer = os.pipe()
            except OSError:
                break  # no descriptors left: fewer children
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork with other OS threads alive. The
                    # only ones are native pools: no Python thread runs (see
                    # fork_map), and OpenBLAS quiesces its pool in its
                    # pthread_atfork handler.
                    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                break  # no processes left: fewer children
            if pid == 0:
                _child(fn, items, batches, tickets, reader, writer)
            os.close(writer)
            pipes[pid] = reader

        done.update(_work(fn, items, batches, tickets))
        for reader in pipes.values():
            # read whole, then unpickled: pickle.load on the stream left the parent's
            # heap in a state that peaked 2-8 MB higher on repeated table round trips
            with open(reader, "rb", buffering=0, closefd=False) as pipe:
                try:
                    done.update(pickle.loads(pipe.readall()))
                except Exception:
                    pass  # a killed child or a cut pickle: its items are computed again
    finally:
        if os.getpid() != parent:  # a child interrupted before it reached _child
            os._exit(0)
        if blas:
            blas[1](threads)
        for pid, reader in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
        os.close(tickets)


def _work(fn, items, batches, tickets) -> dict:
    """``{index: result}`` of the items of every ticket this process claims,
    until the ticket pipe is empty or an item raises or warns. That item and
    the rest of its batch are left out; the parent computes them after the
    join, in item order."""
    done = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning defers the item, as an exception does
        try:
            while ticket := os.read(tickets, 1):
                for i in batches[ticket[0]]:
                    done[i] = fn(items[i])
        except Exception:
            pass
    return done


def _child(fn, items, batches, tickets, reader, writer):
    """A forked worker: run :func:`_work`, then send its ``{index: result}``
    home as one pickle through ``writer``."""
    try:
        os.close(reader)
        done = _work(fn, items, batches, tickets)
        with os.fdopen(writer, "wb") as out:
            pickle.dump(done, out)
    finally:
        os._exit(0)  # the parent reads results, not exit codes
