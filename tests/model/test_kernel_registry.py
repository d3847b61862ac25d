"""The one kernel registry serves the fast, batch and wide engines."""

from repro.analysis.inputs import random_distinct_ids
from repro.campaign.registry import ALGORITHMS
from repro.model import batch, kernels, wide
from repro.model.batch import build_batch_kernel, run_batch
from repro.model.fastpath import FastExecutor
from repro.model.kernels import KERNELS, build_kernel
from repro.model.topology import Cycle
from repro.model.wide import build_wide_kernel, run_wide
from repro.schedulers import SynchronousScheduler


def test_every_shipped_algorithm_runs_on_every_kernel_engine():
    topology = Cycle(9)
    inputs = random_distinct_ids(9, seed=3)
    for name, factory in sorted(ALGORITHMS.items()):
        entry = KERNELS.get(factory)
        assert entry is not None, f"{name}: not registered"
        for table in (kernels._SCALAR_KERNELS, batch._RUNNERS, wide._RUNNERS):
            assert entry.family in table, f"{name}: {entry.family}"
        assert build_kernel(factory(), topology, inputs) is not None, name
        assert build_batch_kernel(
            [factory(), factory()], topology, [inputs, inputs]
        ) is not None, name
        assert build_wide_kernel(factory(), topology, inputs) is not None, name


def test_unregistered_subclass_declines_on_every_kernel_engine():
    for name, factory in sorted(ALGORITHMS.items()):
        subclass = type("Subclassed", (factory,), {})
        assert subclass not in KERNELS
        topology = Cycle(7)
        inputs = random_distinct_ids(7, seed=1)
        assert FastExecutor(topology, subclass(), inputs)._kernel is None, name
        assert run_batch(
            [subclass(), subclass()], topology, [inputs, inputs],
            [SynchronousScheduler(), SynchronousScheduler()],
        ) is None, name
        assert run_wide(
            subclass(), topology, inputs, SynchronousScheduler()
        ) is None, name
