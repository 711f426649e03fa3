"""Chunk-parallel training and scoring: the same bits for any number of
helper processes, serial error order, and no process left behind."""

import os
import signal
from collections import Counter

import numpy as np
import pytest

from molbridge import model as m
from molbridge import parallel as par
from molbridge.autodiff import Param, Tensor
from molbridge.checkpoint import save_checkpoint
from molbridge.cli import main
from molbridge.data import featurize_samples
from molbridge.errors import (
    MolBridgeError,
    NonFiniteActivationError,
    TrainingAbortedError,
)
from molbridge.model import ModelConfig, init_params
from molbridge.splits import make_splits
from molbridge.synthetic import make_pair_dataset, write_dataset
from molbridge.train import TrainConfig, train

# chains of 12 to 24 atoms: joint graphs of 24 to 48 atoms, so a batch
# of 32 pairs spans at least three chunks of CHUNK_ROWS padded rows
POOL = [f"{'C' * a}{x}{'C' * b}" for x in "ON" for a in (6, 9, 12)
        for b in (5, 8, 11)]
FLAGS = ["--epochs", "2", "--batch", "32", "--dim", "8", "--heads", "2",
         "--layers", "2", "--d-hid", "16"]


def helpers(monkeypatch, count: int) -> None:
    """Run chunk-parallel work with `count` helper processes."""
    monkeypatch.setattr(par, "processes", lambda: count + 1)


def single_threaded(monkeypatch) -> None:
    """Count this process as running one thread, as it does with BLAS
    pinned to one thread and no fault-handler watchdog."""
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: ["1"]
                        if path == "/proc/self/task" else listdir(path))


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def deadline():
    """A hang in a helper fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("chunk-parallel test ran over 120 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def samples():
    return make_pair_dataset(POOL, 60, seed=3)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("data") / "chains.csv"
    write_dataset(samples, path)
    return path


@pytest.fixture(scope="module")
def plan(samples):
    return make_splits(samples, "transductive", 0, 42)


def small_config(**over):
    return TrainConfig(**{**dict(batch_size=32, dim=8, heads=2, layers=2,
                                 d_hid=16, max_epochs=1), **over})


class TestSetUp:
    def test_batches_span_three_chunks(self, samples, plan):
        pairs = featurize_samples([samples[i] for i in plan.train[:32]])
        assert len(m.plan_chunks(m.joint_sizes(pairs))) >= 3

    def test_one_backward_adds_to_each_param_once(self, samples,
                                                  monkeypatch):
        # this is what makes "each chunk's gradient from zero, folded in
        # chunk order" equal the serial sum bit for bit
        params = init_params(ModelConfig(dim=8, heads=2, layers=2))
        chunk = samples[:5]
        calls = Counter()
        add = Param._add_grad

        def counted(self, g):
            calls[self.name] += 1
            add(self, g)

        monkeypatch.setattr(Param, "_add_grad", counted)
        logits = m.forward_chunk(featurize_samples(chunk), params)
        loss = m.cross_entropy_from_logits(
            logits, [s.label % 2 for s in chunk]) * 0.5
        loss.backward()
        assert calls == {name: 1 for name, _ in params.named()}


class TestProcesses:
    def test_capped_by_usable_cpus(self, monkeypatch):
        single_threaded(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        assert par.processes() == par.MAX_PROCESSES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert par.processes() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert par.processes() == 1

    def test_serial_beside_other_threads(self, monkeypatch):
        # a multi-threaded BLAS, for one: fork would copy its locks as
        # they stand, and helpers would fight it for the CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"]
                            if path == "/proc/self/task" else listdir(path))
        assert par.processes() == 1

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert par.processes() == 1

    def test_split_is_contiguous_and_cost_balanced(self):
        assert par.split([5, 1, 1, 1, 1, 1], 2) == [range(0, 1), range(1, 6)]
        parts = par.split([1] * 10, 3)
        assert [i for part in parts for i in part] == list(range(10))
        assert [len(part) for part in parts] == [3, 4, 3]
        assert par.split([1, 1], 3)[0] == range(0, 1)


class TestHelpers:
    def test_stopping_early_ends_the_helpers(self, monkeypatch):
        helpers(monkeypatch, 2)
        double = lambda x: 2 * x        # noqa: E731
        with par.Helpers([], {"double": double}) as pool:
            results = pool.run("double", [1, 2, 3, 4], [1] * 4, double)
            assert next(results) == 2
            results.close()
            assert_no_child()
            assert list(pool.run("double", [5, 6, 7], [1] * 3, double)) \
                == [10, 12, 14]


class TestSameBits:
    def test_train_cli_outputs_identical(self, data_path, tmp_path,
                                         monkeypatch):
        fds = os.listdir("/proc/self/fd")
        outputs = []
        for count in (0, 1, 2):
            helpers(monkeypatch, count)
            out = tmp_path / f"helpers{count}"
            assert main(["train", "--data", str(data_path), *FLAGS,
                         "--out", str(out)]) == 0
            outputs.append(((out / "runrecord.csv").read_bytes(),
                            (out / "best.ckpt").read_bytes()))
            assert_no_child()
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert len(os.listdir("/proc/self/fd")) == len(fds)

    def test_batch_logits_equal(self, samples, monkeypatch):
        params = init_params(ModelConfig(dim=8, heads=2, layers=2))
        pairs = featurize_samples(samples)
        assert len(m.plan_chunks(m.joint_sizes(pairs))) >= 3
        got = []
        for count in (0, 1, 2):
            helpers(monkeypatch, count)
            got.append(m.batch_logits(pairs, params))
            assert_no_child()
        assert np.array_equal(got[1], got[0])
        assert np.array_equal(got[2], got[0])


class TestFailures:
    def fail_in(self, monkeypatch, where: str, fail):
        """Make forward_chunk call fail(role) in the parent, in the
        helpers or in both, role being "parent" or "helper <pid>"."""
        parent = os.getpid()
        forward = m.forward_chunk

        def patched(pairs, params):
            role = "parent" if os.getpid() == parent else \
                f"helper {os.getpid()}"
            if where in ("both", role.split()[0]):
                fail(role)
            return forward(pairs, params)

        monkeypatch.setattr(m, "forward_chunk", patched)

    def raise_nan(self, role):
        raise NonFiniteActivationError(f"nan in the {role}")

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_parent_error_reads_as_serial(self, samples, plan, monkeypatch,
                                          count):
        # with helpers failing too, the parent's chunks come first
        helpers(monkeypatch, count)
        self.fail_in(monkeypatch, "both", self.raise_nan)
        with pytest.raises(TrainingAbortedError) as info:
            train(samples, plan, small_config())
        assert str(info.value) == "epoch 0 batch 0: nan in the parent"
        assert type(info.value.__cause__) is NonFiniteActivationError
        assert_no_child()

    def test_helper_error_reads_as_serial(self, samples, plan, monkeypatch):
        # two helpers both failing: the first helper's chunk comes first
        helpers(monkeypatch, 2)
        self.fail_in(monkeypatch, "helper", self.raise_nan)
        pids = []
        fork = os.fork

        def remembered():
            pid = fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", remembered)
        with pytest.raises(TrainingAbortedError) as info:
            train(samples, plan, small_config())
        assert str(info.value) == \
            f"epoch 0 batch 0: nan in the helper {pids[0]}"
        assert type(info.value.__cause__) is NonFiniteActivationError
        assert_no_child()

    def test_helper_non_finite_loss_reads_as_serial(self, samples, plan,
                                                    monkeypatch):
        parent = os.getpid()
        loss = m.cross_entropy_from_logits

        def patched(logits, labels):
            if os.getpid() == parent:
                return loss(logits, labels)
            return Tensor._result(np.full((1, 1), np.inf), (logits,),
                                  lambda grad: None)

        helpers(monkeypatch, 1)
        monkeypatch.setattr(m, "cross_entropy_from_logits", patched)
        with pytest.raises(TrainingAbortedError,
                           match="^non-finite loss at epoch 0 batch 0$"):
            train(samples, plan, small_config())
        assert_no_child()

    def test_dead_helper_is_molbridge_error(self, samples, plan,
                                            monkeypatch):
        fds = os.listdir("/proc/self/fd")
        helpers(monkeypatch, 1)
        self.fail_in(monkeypatch, "helper", lambda role: os._exit(3))
        with pytest.raises(MolBridgeError, match="helper process"):
            train(samples, plan, small_config())
        assert_no_child()
        assert len(os.listdir("/proc/self/fd")) == len(fds)

    def test_dead_helper_cli_exit_1(self, data_path, tmp_path, monkeypatch,
                                    capsys):
        helpers(monkeypatch, 2)
        self.fail_in(monkeypatch, "helper", lambda role: os._exit(3))
        assert main(["train", "--data", str(data_path), *FLAGS,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert_no_child()


class TestOnePairNeverForks:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "init.ckpt"
        save_checkpoint(path, init_params(ModelConfig(dim=8, heads=2,
                                                      layers=2)))
        return path

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("forked for one pair")
        helpers(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", refuse)

    def test_predict(self, checkpoint, capsys):
        assert main(["predict", "--checkpoint", str(checkpoint),
                     POOL[0], POOL[-1]]) == 0
        assert capsys.readouterr().out.count("class=") == 2

    def test_analyze_edges(self, checkpoint, tmp_path):
        assert main(["analyze", "edges", "--checkpoint", str(checkpoint),
                     POOL[0], POOL[-1], "--out", str(tmp_path / "e")]) == 0
        assert (tmp_path / "e" / "edges.csv").is_file()
