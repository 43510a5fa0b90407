"""Link specifications and runtime link objects."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bounds import NON_NEGATIVE, POSITIVE, Bound, check_bounds


#: Bytes per second for a 10 Gigabit/s Ethernet link (the paper's testbed).
TEN_GBPS = 10e9 / 8.0


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a (directed) link.

    Parameters
    ----------
    bandwidth:
        Capacity in **bytes per second**.
    latency:
        One-way propagation + switching delay in seconds.
    loss_rate:
        Fraction of traffic lost and retransmitted (0 ≤ p < 1). Modelled as
        goodput inflation: effective bytes = size × (1 + p) per Eq. 5.
    """

    bandwidth: float = TEN_GBPS
    latency: float = 50e-6
    loss_rate: float = 0.0

    BOUNDS = {"bandwidth": POSITIVE, "latency": NON_NEGATIVE, "loss_rate": Bound(0, 1)}
    __post_init__ = check_bounds


@dataclass
class Link:
    """A directed link instance in a topology.

    ``name`` is globally unique within a topology (e.g. ``"up:3"`` for node
    3's uplink). Runtime counters track cumulative bytes for utilisation
    reporting.
    """

    name: str
    spec: LinkSpec
    #: Cumulative effective bytes of the flows that finished on this link:
    #: each credits its exact size when its last byte leaves. The progress
    #: of flows still in flight is added by ``Network.ledger()``, which
    #: mid-run readers (utilization probes) use.
    bytes_carried: float = field(default=0.0, init=False)
    busy_time: float = field(default=0.0, init=False)
    #: Multiplicative fault state (see :meth:`apply_fault`). Factors rather
    #: than absolute values so overlapping faults compose and revert exactly.
    bandwidth_factor: float = field(default=1.0, init=False)
    keep_factor: float = field(default=1.0, init=False)
    #: Caches of values folded from this link's fault state (each network's
    #: route cache, with its routes' losses): :meth:`apply_fault` and
    #: :meth:`clear_fault` empty them.
    caches: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def bandwidth(self) -> float:
        """Effective capacity in bytes/second (spec × active fault factors)."""
        return self.spec.bandwidth * self.bandwidth_factor

    @property
    def loss_rate(self) -> float:
        """Effective loss rate: spec loss compounded with fault bursts."""
        return 1.0 - (1.0 - self.spec.loss_rate) * self.keep_factor

    def apply_fault(self, bandwidth_factor: float = 1.0, extra_loss: float = 0.0) -> None:
        """Overlay a fault on this link.

        ``bandwidth_factor`` scales capacity (0 < f; < 1 is a dip);
        ``extra_loss`` compounds with the spec loss as independent drop
        probabilities. Faults stack multiplicatively, so nested windows
        revert cleanly via :meth:`clear_fault` with the same arguments.
        """
        if bandwidth_factor <= 0:
            raise ValueError(f"bandwidth_factor must be positive, got {bandwidth_factor}")
        if not (0.0 <= extra_loss < 1.0):
            raise ValueError(f"extra_loss must be in [0,1), got {extra_loss}")
        self.bandwidth_factor *= bandwidth_factor
        self.keep_factor *= 1.0 - extra_loss
        for cache in self.caches:
            cache.clear()

    def clear_fault(self, bandwidth_factor: float = 1.0, extra_loss: float = 0.0) -> None:
        """Undo a previous :meth:`apply_fault` with identical arguments."""
        if bandwidth_factor <= 0:
            raise ValueError(f"bandwidth_factor must be positive, got {bandwidth_factor}")
        if not (0.0 <= extra_loss < 1.0):
            raise ValueError(f"extra_loss must be in [0,1), got {extra_loss}")
        self.bandwidth_factor /= bandwidth_factor
        self.keep_factor /= 1.0 - extra_loss
        # Snap float drift so a fully-reverted link is bit-exact again.
        if abs(self.bandwidth_factor - 1.0) < 1e-12:
            self.bandwidth_factor = 1.0
        if abs(self.keep_factor - 1.0) < 1e-12:
            self.keep_factor = 1.0
        for cache in self.caches:
            cache.clear()

    def window_utilization(self, bytes_in_window: float, elapsed: float) -> float:
        """Utilisation of one sampling window against nominal capacity.

        The caller supplies the window's byte delta (``bytes_carried`` is
        cumulative); same nominal-capacity convention as
        :meth:`utilization` so fault windows read as *low* utilisation of a
        healthy link, not 100% of a degraded one.
        """
        if elapsed <= 0:
            return 0.0
        return min(1.0, bytes_in_window / (self.spec.bandwidth * elapsed))

    def utilization(self, elapsed: float) -> float:
        """Average utilisation over ``elapsed`` seconds of simulated time.

        Measured against the *nominal* (spec) capacity: ``bytes_carried``
        is whole-run history, so dividing by the fault-adjusted effective
        bandwidth would overstate utilisation whenever the report is taken
        during an active bandwidth dip.
        """
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.bytes_carried / (self.spec.bandwidth * elapsed))

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        gbps = self.bandwidth * 8 / 1e9
        return f"<Link {self.name} {gbps:.1f}Gbps>"


__all__ = [
    "Link",
    "LinkSpec",
    "TEN_GBPS",
]
