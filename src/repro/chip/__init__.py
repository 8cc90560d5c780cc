"""Chip-level simulation: N composable SMs behind shared, arbitrated DRAM.

The paper evaluates one SM with a fixed 1/32 slice of chip bandwidth
and scales chip numbers analytically.  This package makes the chip
explicit: :func:`simulate_chip` builds ``num_sms``
:class:`~repro.sm.core.SMCore` instances -- each with its own DRAM
port, CTA source, and collector -- behind a shared
:class:`~repro.memory.dram.DRAMSystem`, with a GigaThread-style
:class:`CTADispatcher` spreading the grid across SMs, and runs them on
the same loop as :func:`repro.sm.simulate`.

``ChipConfig.single_sm()`` -- one SM, private full-slice channel -- is
the degenerate case that reproduces the paper's methodology (and the
golden fixtures) bit for bit; see :doc:`docs/chip`.
"""

from repro.chip.config import ChipConfig, chip_fingerprint
from repro.chip.dispatch import CTADispatcher
from repro.chip.result import ChipResult
from repro.chip.serialize import (
    CHIP_RESULT_FORMAT_VERSION,
    chip_result_from_dict,
    chip_result_to_dict,
    load_chip_result,
    save_chip_result,
)
from repro.chip.simulator import simulate_chip

__all__ = [
    "ChipConfig",
    "chip_fingerprint",
    "CTADispatcher",
    "ChipResult",
    "CHIP_RESULT_FORMAT_VERSION",
    "chip_result_to_dict",
    "chip_result_from_dict",
    "save_chip_result",
    "load_chip_result",
    "simulate_chip",
]
