"""Shared node pool: host inventory, placement, compute-slot contention.

The pool owns the co-tenant fabric's hosts (nodes ``0..n_hosts-1`` of one
shared :class:`~repro.netsim.topology.StarTopology`) and hands jobs a
:class:`~repro.cluster.spec.Placement`: job node ``i`` on ``hosts[i]``. The
slots each placement took stay with the pool. Two modes:

* ``exclusive`` — every pool host carries at most one job node; co-tenant
  jobs contend only where their placements share links (never, on the
  pool's one-rack star — use shared placement for fabric contention
  studies).
* ``shared`` — hosts carry up to ``slots_per_host`` job nodes; co-located
  tenants share the host's up/down links (real network contention) and
  its ``gpus_per_host``-deep compute-slot :class:`Resource`, so
  oversubscribed GPUs serialise compute phases.
"""

from __future__ import annotations

from typing import Optional

from repro.bounds import COUNT, Bound, check_bounds
from repro.cluster.spec import Placement
from repro.netsim.links import LinkSpec
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment
from repro.simcore.resources import Resource

PLACEMENT_MODES = ("exclusive", "shared")


class NodePool:
    """Host inventory + placement accounting for the shared fabric.

    Purely passive at construction (no events scheduled): building a pool
    around an environment does not perturb any co-tenant timeline.
    """

    BOUNDS = {"n_hosts": COUNT, "slots_per_host": COUNT,
              "gpus_per_host": Bound(1, integer=True, optional=True)}  # fmt: skip

    def __init__(
        self,
        env: Environment,
        n_hosts: int,
        slots_per_host: int = 1,
        gpus_per_host: Optional[int] = None,
    ) -> None:
        self.env = env
        self.n_hosts = n_hosts
        self.link = LinkSpec()
        self.slots_per_host = slots_per_host
        self.gpus_per_host = gpus_per_host
        check_bounds(self)
        if gpus_per_host is None:
            self.gpus_per_host = slots_per_host
        #: The shared fabric all tenants ride; built exactly like a
        #: single-tenant trainer's star so exclusive identity placements
        #: reproduce the direct-run topology bit-for-bit.
        self.topology = StarTopology(self.n_hosts, default_spec=self.link)
        self._free = [self.slots_per_host] * self.n_hosts
        #: job -> {host: slots its placement took}, returned on release
        self._consumed: dict[str, dict[int, int]] = {}
        #: Per-host compute-slot resource (lazy: only shared placements
        #: route compute through it).
        self.compute_slots = [
            Resource(env, capacity=self.gpus_per_host) for _ in range(self.n_hosts)
        ]

    # -- capacity -----------------------------------------------------------
    def can_allocate(self, n_nodes: int, mode: str) -> bool:
        """Would :meth:`allocate` succeed right now?"""
        self._check_mode(mode)
        if mode == "exclusive":
            whole = sum(1 for f in self._free if f == self.slots_per_host)
            return whole >= n_nodes
        return sum(self._free) >= n_nodes

    def allocate(self, job: str, n_nodes: int, mode: str) -> Placement:
        """Place ``n_nodes`` job-local nodes onto pool hosts.

        ``exclusive`` takes the ``n_nodes`` lowest-id fully-free hosts and
        consumes them whole. ``shared`` assigns each local node in order
        to the host with the most free slots (lowest id on ties) — so two
        same-shape jobs on a just-big-enough pool land on identical hosts,
        the co-location the contention bench relies on. Raises
        ``RuntimeError`` when the pool cannot fit the job (admission
        policies call :meth:`can_allocate` first).
        """
        self._check_mode(mode)
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if job in self._consumed:
            raise ValueError(f"job {job!r} is already placed")
        consumed: dict[int, int] = {}
        if mode == "exclusive":
            hosts = [
                h for h in range(self.n_hosts)
                if self._free[h] == self.slots_per_host
            ][:n_nodes]
            if len(hosts) < n_nodes:
                raise RuntimeError(
                    f"pool cannot place job {job!r}: needs {n_nodes} free "
                    f"hosts, has {len(hosts)}"
                )
            for h in hosts:
                self._free[h] = 0
                consumed[h] = self.slots_per_host
        else:
            hosts = []
            for _ in range(n_nodes):
                h = max(range(self.n_hosts), key=lambda i: (self._free[i], -i))
                if self._free[h] <= 0:
                    # roll back partial assignment before failing
                    for taken in hosts:
                        self._free[taken] += 1
                    raise RuntimeError(
                        f"pool cannot place job {job!r}: out of host slots "
                        f"after {len(hosts)}/{n_nodes} nodes"
                    )
                self._free[h] -= 1
                consumed[h] = consumed.get(h, 0) + 1
                hosts.append(h)
        self._consumed[job] = consumed
        return Placement(job, hosts)

    def release(self, placement: Placement) -> None:
        """Return a placement's slots to the pool."""
        for host, n in self._consumed.pop(placement.job).items():
            self._free[host] += n
            if self._free[host] > self.slots_per_host:  # pragma: no cover
                raise RuntimeError(f"double release on host {host}")

    def compute_slot(self, host: int) -> Resource:
        """The host's shared compute-slot resource."""
        return self.compute_slots[host]

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in PLACEMENT_MODES:
            raise ValueError(
                f"placement mode must be one of {PLACEMENT_MODES}, got {mode!r}"
            )


__all__ = ["NodePool", "PLACEMENT_MODES"]
