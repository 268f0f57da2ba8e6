"""The fork-join map behind the k-sweep and Hopkins' trials: results never
depend on the process count, failures fall back to the serial path, no
child or descriptor outlives a call, and no item of a map maps in turn."""

import _thread
import errno
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from clusterlab import (KMeans, _parallel, dataset, hopkins_statistic, pipeline, sweep_k, tendency,
                        validation)
from clusterlab._parallel import fork_map
from clusterlab.cli import main
from clusterlab.distances import Metric
from conftest import REPO_ROOT
from test_kmedoids import FAMILIES

CASES = {
    "duplicates": FAMILIES["duplicates"],
    # four corners and the centre of a square, each three times: the centre
    # lies exactly as far from every corner (TestLloydShortcuts' tie case)
    "exact-ties": lambda: np.repeat(
        [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]], 3, axis=0),
}

PARENT = os.getpid()


@pytest.fixture
def forks(monkeypatch):
    """The pids forked while the test runs; ``os.fork`` still forks."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def with_cpus(monkeypatch, count):
    monkeypatch.setattr(_parallel, "_cpus", lambda: count)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_sweeps(results):
    first = results[0]
    for other in results[1:]:
        assert (other.ks, other.best_k) == (first.ks, first.best_k)
        assert bits(other.avg_silhouette) == bits(first.avg_silhouette)
        assert bits(other.wss) == bits(first.wss)


def assert_same_hopkins(results):
    first = results[0]
    for other in results[1:]:
        assert bits(other.per_trial) == bits(first.per_trial)
        assert bits(other.h) == bits(first.h)
        assert other == first


def test_cpus_are_the_affinity_mask():
    assert _parallel._cpus() == len(os.sched_getaffinity(0))


class TestWorkerCountChangesNothing:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("algorithm", ["kmeans", "pam"])
    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.MANHATTAN])
    def test_sweep(self, monkeypatch, forks, case, algorithm, metric):
        X, results = CASES[case](), []
        for cpus in (1, 2, 3):
            with_cpus(monkeypatch, cpus)
            forks.clear()
            results.append(sweep_k(X, (2, 8), algorithm=algorithm, metric=metric,
                                   seed=5, n_init=4))
            assert len(forks) == cpus - 1
        assert_same_sweeps(results)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("power", [1, 3])
    def test_hopkins(self, monkeypatch, forks, case, power):
        X, results = CASES[case](), []
        for cpus in (1, 2, 3):
            with_cpus(monkeypatch, cpus)
            forks.clear()
            results.append(hopkins_statistic(X, m=5, trials=7, seed=1, power=power))
            assert len(forks) == cpus - 1
        assert_same_hopkins(results)

    def test_more_items_than_tickets(self, monkeypatch):
        # 600 items in 256 tickets: consecutive items share a ticket
        with_cpus(monkeypatch, 3)
        assert fork_map(lambda i: i * i, range(600), cost=lambda i: i % 7) == [
            i * i for i in range(600)]


@pytest.fixture(scope="module")
def large_tables(tmp_path_factory):
    """A WBC-shaped CSV of more than two parse items, with a '?' in some
    rows, and the same table as ARFF."""
    rng = np.random.default_rng(4)
    features = rng.random((20_000, 9)) * 10.0
    features[:, ::2] = features[:, ::2].round(2)
    rows = [[str(1_000_000 + i), *map(repr, row), str(2 + 2 * (i % 3 == 0))]
            for i, row in enumerate(features.tolist())]
    for i in rng.choice(len(rows), 300, replace=False):
        rows[i][1 + i % 9] = "?"
    text = "".join(",".join(row) + "\n" for row in rows)
    assert len(text) > 2 * dataset._PARSE_CHUNK
    root = tmp_path_factory.mktemp("large")
    (root / "table.csv").write_text(text)
    (root / "table.arff").write_bytes(dataset.write_arff(dataset.parse_csv(text)))
    return root


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_cli_bytes_on_one_cpu_and_on_all(synth_csv_path, large_tables, tmp_path):
    """Every output byte of the commands that fork is the same when the
    process may use one CPU only. On a one-CPU machine both sides run
    inline, and the test shows only that the inline path is deterministic."""
    one_cpu = min(os.sched_getaffinity(0))
    synth, table = str(synth_csv_path), str(large_tables / "table.csv")
    commands = {
        "analyze": ("analyze", synth, "--seed", "3", "--out", "out", "--trials", "8",
                    "--restarts", "4", "--k-max", "6"),
        "pam-sweep": ("sweep", synth, "--seed", "3", "--out", "out", "--algorithm", "pam",
                      "--k-max", "6"),
        "tendency": ("tendency", synth, "--seed", "3", "--out", "out", "--trials", "8"),
        "export-arff": ("preprocess", table, "--out", "out", "--export", "arff"),
        "export-csv": ("preprocess", table, "--out", "out", "--export", "csv"),
        "inspect": ("inspect", str(large_tables / "table.arff"), "--json"),
    }
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for name, argv in commands.items():
        seen = []
        for pin in (lambda: os.sched_setaffinity(0, {one_cpu}), None):
            cwd = tmp_path / f"{name}-{len(seen)}"
            cwd.mkdir()
            proc = subprocess.run([sys.executable, "-m", "clusterlab.cli", *argv],
                                  cwd=cwd, env=env, preexec_fn=pin, capture_output=True,
                                  timeout=300)
            files = {p.name: p.read_bytes() for p in sorted((cwd / "out").glob("*"))}
            seen.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert seen[0][0] == 0
        assert seen[0] == seen[1]


def test_a_child_never_stalls_on_a_full_pipe(monkeypatch):
    # each result is larger than a pipe's buffer; a child that wrote it as
    # soon as it was computed would wait for the parent to run dry of items
    # and compute only its first one
    with_cpus(monkeypatch, 2)

    def slow(i):
        time.sleep(0.1)
        return os.getpid(), bytes(1 << 18)

    pids = [pid for pid, _ in fork_map(slow, range(8))]
    assert len(pids) - pids.count(os.getpid()) > 1


class TestFailures:
    @staticmethod
    def broken_in_children(monkeypatch, module, name, how):
        """Make ``module.name`` fail in a forked child only."""
        real = getattr(module, name)

        def failing(*args, **kwargs):
            if os.getpid() != PARENT:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("only in a child")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)

    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_child_failure_gives_the_serial_results(self, monkeypatch, forks, how):
        X = CASES["duplicates"]()
        with_cpus(monkeypatch, 1)
        serial = (sweep_k(X, (2, 8), algorithm="pam", seed=2),
                  sweep_k(X, (2, 8), seed=2, n_init=3),
                  hopkins_statistic(X, m=6, trials=6, seed=2))
        with_cpus(monkeypatch, 3)
        self.broken_in_children(monkeypatch, validation, "silhouette_report", how)
        self.broken_in_children(monkeypatch, tendency, "_screened_nearest", how)
        forked = (sweep_k(X, (2, 8), algorithm="pam", seed=2),
                  sweep_k(X, (2, 8), seed=2, n_init=3),
                  hopkins_statistic(X, m=6, trials=6, seed=2))
        assert len(forks) == 6
        assert_same_sweeps(serial[:1] + forked[:1])
        assert_same_sweeps(serial[1:2] + forked[1:2])
        assert_same_hopkins(serial[2:] + forked[2:])

    def test_failure_in_the_parents_claim_only(self, monkeypatch, forks):
        # the parent stops at its first item; the child and the serial pass do the rest
        with_cpus(monkeypatch, 2)
        failed, claiming, work = [], [], _parallel._work

        def marked_work(*args):
            claiming.append(True)
            try:
                return work(*args)
            finally:
                claiming.pop()

        def failing_in_the_parents_claim(i):
            if os.getpid() == PARENT and claiming:
                failed.append(i)
                raise RuntimeError("only in the parent's claim")
            time.sleep(0.01)
            return i * i

        monkeypatch.setattr(_parallel, "_work", marked_work)
        assert fork_map(failing_in_the_parents_claim, range(8)) == [i * i for i in range(8)]
        assert len(failed) == 1 and len(forks) == 1

    @staticmethod
    def break_fits_from_k3(monkeypatch):
        fit = KMeans.fit

        def failing(self, X, y=None):
            if self.n_clusters >= 3:
                raise ValueError(f"no fit at k={self.n_clusters}")
            return fit(self, X, y)

        monkeypatch.setattr(KMeans, "fit", failing)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failure_everywhere_is_the_serial_error(self, monkeypatch, cpus):
        # serially, k = 3 fails first; the forked sweep claims k = 8 first
        with_cpus(monkeypatch, cpus)
        self.break_fits_from_k3(monkeypatch)
        with pytest.raises(ValueError, match=r"^no fit at k=3$"):
            sweep_k(CASES["duplicates"](), (2, 8), seed=2, n_init=2)

    def test_failure_everywhere_through_the_cli(self, monkeypatch, capsys, synth_csv_path):
        self.break_fits_from_k3(monkeypatch)
        seen = []
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            code = main(["sweep", str(synth_csv_path), "--seed", "1", "--restarts", "2"])
            seen.append((code, capsys.readouterr()))
        assert seen[0][0] == 3
        assert seen[0][1].err == "analysis error: no fit at k=3\n"
        assert seen[0] == seen[1]

    def test_keyboard_interrupt_in_the_parent_propagates(self, monkeypatch, forks):
        # an item takes 50 ms in the child, which would need 0.8 s to drain
        # the 16 tickets: the parent claims one first (with 4 instant items,
        # the child could claim all of them before the parent's first claim)
        with_cpus(monkeypatch, 2)

        def interrupted(i):
            if os.getpid() == PARENT:
                raise KeyboardInterrupt
            time.sleep(0.05)
            return i

        with pytest.raises(KeyboardInterrupt):
            fork_map(interrupted, range(16))
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)


@pytest.mark.parametrize("cut", [lambda n: 0, lambda n: 1, lambda n: n // 2, lambda n: n - 1],
                         ids=["nothing", "one-byte", "half", "all-but-one"])
def test_a_pickle_cut_short_leaves_the_childs_items_to_the_parent(monkeypatch, tmp_path, cut):
    # the child writes only the first bytes of its pickle and is killed
    with_cpus(monkeypatch, 2)
    sent = tmp_path / "sent"

    def dump_then_die(obj, out):
        data = pickle.dumps(obj)
        sent.write_text(str(len(obj)))
        out.write(data[:cut(len(data))])
        out.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    def slow(i):
        time.sleep(0.02)
        return os.getpid(), i * i

    monkeypatch.setattr(_parallel.pickle, "dump", dump_then_die)
    assert fork_map(slow, range(12)) == [(PARENT, i * i) for i in range(12)]
    assert int(sent.read_text()) > 0  # the child had claimed items


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_refused_fork_or_pipe_leaves_the_work_to_the_parent(monkeypatch, call):
    with_cpus(monkeypatch, 3)

    def refused():
        raise OSError(errno.EAGAIN if call == "fork" else errno.EMFILE, "refused")

    monkeypatch.setattr(os, call, refused)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert fork_map(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_no_child_or_descriptor_outlives_a_call(monkeypatch, forks):
    with_cpus(monkeypatch, 3)
    fds = sorted(os.listdir("/proc/self/fd"))
    for _ in range(20):
        assert fork_map(abs, range(-3, 3), cost=abs) == [3, 2, 1, 0, 1, 2]
    for _ in range(20):
        with pytest.raises(ZeroDivisionError):
            fork_map(lambda i: 1 // i, range(-2, 3))
    assert len(forks) == 80
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_fork_beside_a_native_thread_warns_nothing(monkeypatch, forks):
    """From Python 3.12 on, ``os.fork`` warns when another OS thread is alive,
    as OpenBLAS's pool is once numpy is loaded; fork_map silences exactly
    that warning. Before 3.12 there is no such warning to silence."""
    with_cpus(monkeypatch, 2)
    lock = _thread.allocate_lock()
    lock.acquire()
    _thread.start_new_thread(lock.acquire, ())  # an OS thread threading does not count
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fork_map(abs, range(-2, 2)) == [2, 1, 0, 1]
    finally:
        lock.release()
    assert len(forks) == 1
    assert caught == []


class TestOneBlasThread:
    """Items run on one BLAS thread, in the parent and in every child, and
    the parent gets its own count back when the map ends."""

    @pytest.fixture
    def blas_threads(self):
        """The loaded OpenBLAS's thread count reader, with the count set to
        2 for the test and put back after it."""
        blas = _parallel._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS is loaded: fork_map leaves the BLAS alone")
        get, set_ = blas
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_the_finder_finds_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas["name"]:
            pytest.skip(f"numpy is built against {blas['name']}, not OpenBLAS")
        assert _parallel._openblas() is not None

    def test_items_run_on_one_thread(self, monkeypatch, forks, blas_threads):
        with_cpus(monkeypatch, 2)

        def item(i):
            time.sleep(0.05)
            return os.getpid(), blas_threads()

        seen = fork_map(item, range(8))
        assert [threads for _, threads in seen] == [1] * 8
        assert {pid for pid, _ in seen} == {PARENT, *forks}
        assert blas_threads() == 2

    def test_the_count_comes_back_after_an_item_raises(self, monkeypatch, blas_threads):
        with_cpus(monkeypatch, 2)
        with pytest.raises(ZeroDivisionError):
            fork_map(lambda i: 1 // i, range(-2, 3))
        assert blas_threads() == 2

    def test_inline_maps_leave_the_count_alone(self, monkeypatch, forks, blas_threads):
        with_cpus(monkeypatch, 1)
        assert fork_map(lambda i: blas_threads(), range(3)) == [2, 2, 2]
        assert forks == []

    def test_without_openblas_the_map_runs_unchanged(self, monkeypatch, forks, blas_threads):
        # the finder finds nothing: items see the parent's count, and results,
        # forks and the restore are as with the finder
        monkeypatch.setattr(_parallel, "_openblas", lambda: None)
        with_cpus(monkeypatch, 2)
        assert fork_map(lambda i: (abs(i), blas_threads()), range(-3, 3), cost=abs) == [
            (3, 2), (2, 2), (1, 2), (0, 2), (1, 2), (2, 2)]
        assert len(forks) == 1
        with pytest.raises(ZeroDivisionError):
            fork_map(lambda i: 1 // i, range(-2, 3))
        assert blas_threads() == 2


class TestInline:
    def test_while_another_thread_is_alive(self, monkeypatch, forks):
        with_cpus(monkeypatch, 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert fork_map(abs, range(-2, 2)) == [2, 1, 0, 1]
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    @pytest.mark.parametrize("cpus, items", [(1, 5), (4, 1), (4, 0)])
    def test_one_cpu_or_one_item(self, monkeypatch, forks, cpus, items):
        with_cpus(monkeypatch, cpus)
        assert fork_map(abs, range(items)) == list(range(items))
        assert forks == []


def test_no_item_of_a_map_maps(monkeypatch, synth_csv, tmp_path, capsys):
    """Every ``fn`` that fork_map receives is wrapped, and a fork_map call
    that starts inside one is logged, in whichever process it starts. Each
    command that maps runs at 1, 2 and 12 processes, on a table of more than
    two parse items and written in several blocks; none nests a map, and
    stdout and every file are the same at each count."""
    real, nested, inside = _parallel.fork_map, tmp_path / "nested", []

    def checked_fork_map(fn, items, cost=None):
        if inside:
            with open(nested, "a") as log:
                log.write(f"{os.getpid()}\n")

        def item(x):
            inside.append(x)
            try:
                return fn(x)
            finally:
                inside.pop()

        return real(item, items, cost)

    for module in [m for name, m in sys.modules.items() if name.startswith("clusterlab")]:
        if getattr(module, "fork_map", None) is real:
            monkeypatch.setattr(module, "fork_map", checked_fork_map)
    monkeypatch.setattr(dataset, "_PARSE_CHUNK", len(synth_csv) // 5)
    monkeypatch.setattr(dataset, "_FORMAT_BLOCK", 100)
    table, arff = tmp_path / "table.csv", tmp_path / "table.arff"
    table.write_bytes(synth_csv)
    arff.write_bytes(dataset.write_arff(dataset.parse_csv(synth_csv)))
    commands = {
        "analyze": ("analyze", table, "--seed", "3", "--trials", "8", "--restarts", "4",
                    "--k-max", "6"),
        "pam-sweep": ("sweep", table, "--seed", "3", "--algorithm", "pam", "--k-max", "6"),
        "tendency": ("tendency", table, "--seed", "3", "--trials", "8"),
        "export-arff": ("preprocess", table, "--export", "arff"),
        "inspect": ("inspect", arff, "--json"),
    }
    for name, argv in commands.items():
        seen = []
        for cpus in (1, 2, 12):
            with_cpus(monkeypatch, cpus)
            out = tmp_path / f"{name}-{cpus}"
            argv_out = [*map(str, argv)] + (["--out", str(out)] if name != "inspect" else [])
            code = main(argv_out)
            assert not nested.exists(), f"{name} at {cpus}: a map inside an item"
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
            seen.append((code, capsys.readouterr().out.replace(str(out), "OUT"), files))
        assert seen[0][0] == 0
        assert seen[0] == seen[1] == seen[2]


class TestAnalyzeStageGraph:
    """``analyze`` runs Hopkins' searches, its fits at k and the sweep's
    points as the items of one map: one fork-join per run, no map of
    Hopkins' own, and the serial path's error when several items fail."""

    ARGV = ("--seed", "3", "--trials", "6", "--restarts", "3", "--k-max", "6")

    @staticmethod
    def logged(monkeypatch, log, module, name):
        """Append a line ``<pid>`` to ``log`` at every call of
        ``module.name``, in whichever process makes it."""
        real = getattr(module, name)

        def logging(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, logging)

    def test_one_fork_join_and_no_hopkins_map(self, monkeypatch, forks, synth_csv_path,
                                              tmp_path, capsys):
        joins, maps = tmp_path / "joins", tmp_path / "maps"
        self.logged(monkeypatch, joins, _parallel, "_fork_join")
        self.logged(monkeypatch, maps, tendency._parallel, "fork_map")  # Hopkins' own map
        outputs = []
        for cpus in (2, 1):
            with_cpus(monkeypatch, cpus)
            out = tmp_path / f"out-{cpus}"
            assert main(["analyze", str(synth_csv_path), "--out", str(out), *self.ARGV]) == 0
            outputs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                            {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
            if cpus == 2:
                assert joins.read_text() == f"{PARENT}\n"
                assert len(forks) == 1
        assert not maps.exists()
        assert outputs[0] == outputs[1]

    def test_each_hopkins_search_is_an_item(self, monkeypatch, synth_csv_path, tmp_path):
        planned, mapped = [], []
        plan, real = pipeline.hopkins_searches, pipeline.fork_map
        monkeypatch.setattr(pipeline, "hopkins_searches",
                            lambda *args: planned.append(plan(*args)) or planned[-1])
        monkeypatch.setattr(pipeline, "fork_map", lambda fn, items, cost=None: (
            mapped.append(items) or real(fn, items, cost)))
        with_cpus(monkeypatch, 2)
        assert main(["analyze", str(synth_csv_path), "--out", str(tmp_path / "out"),
                     *self.ARGV]) == 0
        ((_, searches, _),), (items,) = planned, mapped
        assert len(searches) > 1
        head, rest = items[:len(searches)], items[len(searches):]
        assert all(kind == "hopkins" and item is search
                   for (kind, item), search in zip(head, searches))
        assert rest == ["kmeans", "pam", *range(2, 7)]

    def test_hopkins_and_a_sweep_point_failing_raise_hopkins_error(self, monkeypatch, capsys,
                                                                     synth_csv_path, tmp_path):
        # the forked map claims the sweep's k = 6 before k = 3; serially
        # Hopkins' searches run first, then k = 3
        fit = KMeans.fit

        def failing_fit(self, X, y=None):
            if self.n_clusters in (3, 6):
                raise ValueError(f"no fit at k={self.n_clusters}")
            return fit(self, X, y)

        def failing_search(*args, **kwargs):
            raise ValueError("no hopkins")

        monkeypatch.setattr(KMeans, "fit", failing_fit)
        seen = []
        for cpus in (1, 2, 1, 2):
            if len(seen) == 2:
                monkeypatch.setattr(tendency, "_screened_nearest", failing_search)
            with_cpus(monkeypatch, cpus)
            code = main(["analyze", str(synth_csv_path), "--out", str(tmp_path / "out"),
                         *self.ARGV])
            seen.append((code, capsys.readouterr().err))
        assert seen == [(3, "analysis error: no fit at k=3\n")] * 2 + [
            (3, "analysis error: no hopkins\n")] * 2
