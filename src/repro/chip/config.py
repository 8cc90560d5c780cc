"""Chip-level simulation parameters (paper Sections 2 and 5.2).

The paper simulates one SM with a 1/32 slice of chip bandwidth and
scales to a 32-SM, 130 W chip analytically.  :class:`ChipConfig` makes
the chip explicit: how many SMs, how much total off-chip bandwidth, and
whether that bandwidth is hard-partitioned into private per-SM slices
(the paper's methodology) or shared through an arbitrated
:class:`~repro.memory.dram.DRAMSystem` (the contention model the
single-SM methodology cannot express).

The defaults describe the paper's chip: 32 SMs sharing 256 bytes/cycle.
``ChipConfig.single_sm()`` is the degenerate configuration -- one SM
with a private 8 B/cycle channel -- which :func:`repro.sm.simulate`
runs: the single-SM simulator is this chip (its golden fixtures pin
both entry points).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.sm.config import SMConfig


@dataclass(frozen=True, slots=True)
class ChipConfig:
    """Parameters of a chip built from N composable SMs.

    Attributes:
        num_sms: SMs on the chip (paper Section 2: 32).
        dram_bytes_per_cycle: *Total* off-chip bandwidth shared by all
            SMs (paper: 256 B/cycle).  Note this supersedes the per-SM
            ``SMConfig.dram_bytes_per_cycle`` slice, which only governs
            standalone single-SM runs.
        dram_channels: Channels the shared DRAM system stripes its
            bandwidth over (GDDR-style; ignored when partitioned).
        dram_partitioned: ``True`` gives every SM a private
            ``dram_bytes_per_cycle / num_sms`` channel -- the paper's
            fixed-slice methodology; ``False`` (default) arbitrates the
            shared channels FCFS between SMs.
        sm: Per-SM timing parameters (latencies, cache geometry).  The
            memory-system knobs ride here too: ``sm.mshr_entries``
            enables non-blocking miss handling per SM, and
            ``sm.dram_banks`` / ``sm.dram_row_bytes`` /
            ``sm.dram_row_hit_latency`` give the shared system (or each
            private slice) banked open-page row-buffer timing.
    """

    num_sms: int = 32
    dram_bytes_per_cycle: float = 256.0
    dram_channels: int = 8
    dram_partitioned: bool = False
    sm: SMConfig = field(default_factory=SMConfig)

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        if self.dram_bytes_per_cycle <= 0:
            raise ValueError("dram_bytes_per_cycle must be positive")
        if self.dram_channels < 1:
            raise ValueError("dram_channels must be >= 1")

    @property
    def sm_bandwidth_slice(self) -> float:
        """Bytes/cycle one SM gets under hard partitioning."""
        return self.dram_bytes_per_cycle / self.num_sms

    @classmethod
    def single_sm(cls, sm: SMConfig | None = None) -> "ChipConfig":
        """The paper's methodology as a 1-SM chip.

        One SM behind a private channel carrying exactly the bandwidth
        slice of the given :class:`SMConfig` (default: Table 2's
        8 B/cycle).  :func:`repro.sm.simulate` runs ``simulate_chip``
        under this configuration.
        """
        cfg = sm or SMConfig()
        return cls(
            num_sms=1,
            dram_bytes_per_cycle=cfg.dram_bytes_per_cycle,
            dram_channels=1,
            dram_partitioned=True,
            sm=cfg,
        )


def chip_fingerprint(chip: ChipConfig) -> tuple:
    """Stable, hashable, JSON-compatible rendering of a ChipConfig.

    The nested :class:`SMConfig` is flattened through
    :func:`repro.experiments.runner.config_fingerprint`'s scheme (name/
    value pairs), so two chips differing only in SM timing never share a
    cache key.
    """
    pairs = []
    for f in fields(ChipConfig):
        value = getattr(chip, f.name)
        if f.name == "sm":
            value = tuple((g.name, getattr(value, g.name)) for g in fields(SMConfig))
        pairs.append((f.name, value))
    return tuple(pairs)
