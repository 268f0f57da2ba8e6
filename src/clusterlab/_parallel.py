"""Independent items on every usable CPU: one fork-join map.

:func:`fork_map` computes ``fn(item)`` for every item and returns the
results in item order, exactly as ``[fn(item) for item in items]`` would.
It forks one child per extra usable CPU; the children read the parent's
arrays copy-on-write, so whatever ``fn`` needs is built before the call.
Every process, the parent included, claims work from one ticket pipe until
it runs dry, so a busy CPU takes fewer items. A child pickles its results
and sends them through its own pipe once, after its claims run dry: the
parent reads the pipes only when its own claims have run dry too, so a child
that wrote as it went would stall on its first result larger than the pipe
buffer and claim nothing more. It leaves by ``os._exit`` alone: it flushes
no inherited buffer, runs no atexit handler and writes nothing else.

Failure has no path of its own. After the join, the parent computes, in item
order, every item that no child delivered: an item that raised or warned in
a child, the rest of a child that was killed, a record cut short. So an item
that fails everywhere raises the serial path's own exception, and warnings
reach stderr as the serial path would print them.
"""

import os
import pickle
import threading
import warnings

#: at most this many tickets, one byte each: one write that an empty pipe
#: always holds (POSIX guarantees PIPE_BUF >= 512 bytes)
_TICKETS = 256

#: True inside fork_map, in the parent and in every child, so that a nested
#: call runs inline instead of forking again
_active = False

_MISSING = object()  # a result no process delivered


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
    platform has no ``os.fork``, when another Python thread is alive, and
    inside a worker.
    """
    items = list(items)
    results = [_MISSING] * len(items)
    children = min(_cpus(), len(items)) - 1
    if (children > 0 and hasattr(os, "fork") and threading.active_count() == 1
            and not _active):
        order = list(range(len(items)))
        if cost is not None:
            order.sort(key=lambda i: -cost(items[i]))  # stable: ties keep item order
        _fork_join(fn, items, order, children, results)
    return [fn(item) if result is _MISSING else result
            for item, result in zip(items, results)]


def _fork_join(fn, items, order, children, results):
    """Fill ``results`` with what the parent and up to ``children`` forked
    processes compute; items none of them delivered stay ``_MISSING``."""
    global _active
    import signal  # only a run that forks needs it

    n, t = len(order), min(len(order), _TICKETS)
    batches = [order[b * n // t:(b + 1) * n // t] for b in range(t)]
    try:
        tickets, fill = os.pipe()
    except OSError:
        return  # no descriptors left: the caller computes every item
    pipes = {}  # child pid -> the read end of its result pipe
    parent, _active = os.getpid(), True
    try:
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

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning defers the item, as in a child
            for i in _claim(tickets, batches):
                try:
                    results[i] = fn(items[i])
                except Exception:
                    pass  # computed again after the join, in item order
        for reader in pipes.values():
            _receive(_read_all(reader), results)
    finally:
        if os.getpid() != parent:  # a child interrupted before it reached _child
            os._exit(0)
        _active = False
        for pid, reader in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
        os.close(tickets)


def _claim(tickets, batches):
    """The item indices this process claims, one ticket at a time, until
    the ticket pipe is empty."""
    while ticket := os.read(tickets, 1):
        yield from batches[ticket[0]]


def _child(fn, items, batches, tickets, reader, writer):
    """A forked worker: compute claimed items, then send each as a
    length-prefixed pickle of ``(index, result)``. It stops claiming at its
    first exception or warning; the parent computes that item again."""
    try:
        os.close(reader)
        warnings.simplefilter("error")
        records = []
        try:
            for i in _claim(tickets, batches):
                record = pickle.dumps((i, fn(items[i])))
                records += (len(record).to_bytes(8, "little"), record)
        except Exception:
            pass  # computed again after the join, in item order
        with os.fdopen(writer, "wb") as out:
            out.writelines(records)
    finally:
        os._exit(0)  # the parent reads results, not exit codes


def _read_all(fd) -> bytes:
    with open(fd, "rb", buffering=0, closefd=False) as pipe:
        return pipe.readall()


def _receive(data: bytes, results) -> None:
    """Store every whole record of ``data``; a trailing cut one is dropped."""
    view, start = memoryview(data), 0
    while start + 8 <= len(data):
        end = start + 8 + int.from_bytes(view[start:start + 8], "little")
        if end > len(data):
            break
        i, value = pickle.loads(view[start + 8:end])
        results[i] = value
        start = end
