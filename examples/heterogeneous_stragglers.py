#!/usr/bin/env python
"""Heterogeneity study (paper §6.2): stragglers and batch-size tuning.

One worker runs on a 2x-slower GPU. BSP pays for it at every barrier; ASP
does not; OSP's short RS barrier sits in between. The §6.2 remedy —
batch-size tuning so every node has equal iteration time — is then applied
to OSP by shrinking the slow worker's *virtual* batch (we model it as a
compute-time override).

Run:  python examples/heterogeneous_stragglers.py
"""

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.core import OSP
from repro.hardware import PersistentStraggler
from repro.metrics import format_table
from repro.nn.models import get_card
from repro.sync import ASP, BSP


def run(sync_model, jitter, epochs=12, ipe=8, workers=8):
    spec = ClusterSpec(n_workers=workers, jitter=jitter)
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
    engine = TimingEngine(
        get_card("resnet50-cifar10"),
        spec,
        total_iterations=epochs * ipe,
        tau=epochs * ipe / 6,
    )
    return DistributedTrainer(spec, plan, engine, sync_model).run()


class BatchTunedStraggler(PersistentStraggler):
    """§6.2 batch-size tuning: the slow worker processes a proportionally
    smaller batch so its iteration time matches the others. (Statistical
    effects of the smaller batch are out of scope for the timing study.)"""

    def sample(self, base_time, worker, iteration):
        t = super().sample(base_time, worker, iteration)
        if worker in self.slow_workers:
            t /= self.slow_factor  # batch shrunk by the slowdown factor
        return t


def main() -> None:
    slow = PersistentStraggler(slow_workers=[0], slow_factor=2.0)
    tuned = BatchTunedStraggler(slow_workers=[0], slow_factor=2.0)

    rows = []
    for sync_factory, jitter, label in [
        (BSP, slow, "bsp + straggler"),
        (ASP, slow, "asp + straggler"),
        (OSP, slow, "osp + straggler"),
        (OSP, tuned, "osp + straggler + batch tuning (§6.2)"),
    ]:
        result = run(sync_factory(), jitter)
        rows.append(
            (
                label,
                f"{result.throughput:.1f}",
                f"{result.mean_bst * 1e3:.0f}",
            )
        )

    print(
        format_table(
            ["configuration", "samples/s", "BST (ms)"],
            rows,
            title="Heterogeneous cluster: one 2x-slow worker (8 workers total)",
        )
    )
    print(
        "\nBSP pays the straggler at every barrier; batch-size tuning restores"
        "\nOSP's homogeneous-cluster throughput, as §6.2 suggests."
    )


if __name__ == "__main__":
    main()
