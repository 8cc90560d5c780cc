"""PCR -- parallel cyclic reduction tridiagonal solver (Zhang et al.).

Register-limited with high shared-memory bandwidth demand and a large
streamed dataset (Sections 3.2, 3.3, Figures 2, 4, 8, 9).  Table 1:
33 registers/thread, 20 bytes/thread of shared memory (the a, b, c, d,
x coefficient arrays), 2.88x DRAM accesses with no cache and 1.29x at
64 KB.

The real application runs several kernel launches; each launch
re-reads coefficient data the previous one also read.  We flatten two
launches into one trace:

* phase-1 CTAs (one per system): stage the coefficients, run log2
  steps of stride-doubling cyclic reduction in shared memory (the
  scattered stride-2^s reads are the shared-bandwidth stress), write
  the reduced system out;
* phase-2 CTAs: **re-read the original coefficients** plus the reduced
  system and back-substitute.  The re-read of the full coefficient
  dataset -- sized between the 64 KB and 256 KB cache points at the
  default scale -- is the cache-visible working set that gives pcr its
  Figure 4 sensitivity.  (The cache is no-write-allocate, so only
  read-read reuse is cacheable, exactly as in the paper's design.)
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "pcr"
TARGET_REGS = 33
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 20  # a, b, c, d, x (Table 1)

_CONFIG = {"tiny": (2, 4), "small": (24, 6), "paper": (128, 8)}
# (systems, reduction steps)

_IN, _MID, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    systems, steps = _CONFIG[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=2 * systems,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    nwords = THREADS_PER_CTA  # words per coefficient array
    sa, sb_, sc, sd = 0, nwords * 4, 2 * nwords * 4, 3 * nwords * 4

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        lane0 = warp * WARP_SIZE

        def lanes(sbase, offset=0, stride=1):
            return [
                sbase + 4 * ((lane0 + t * stride + offset) % nwords)
                for t in range(WARP_SIZE)
            ]

        if cta < systems:
            _reduce_phase(b, cta, lane0, lanes, steps)
        else:
            _substitute_phase(b, cta - systems, lane0, lanes)
        return b

    def _reduce_phase(b, system, lane0, lanes, nsteps):
        sys_elem = system * 4 * nwords
        for arr, sbase in enumerate((sa, sb_, sc, sd)):
            v = b.load_global(coalesced(_IN, sys_elem + arr * nwords + lane0))
            b.store_shared(lanes(sbase), v)
        b.barrier()
        for s in range(nsteps):
            stride = 1 << s
            am = b.load_shared(lanes(sa, -stride))
            ap = b.load_shared(lanes(sa, +stride))
            cm = b.load_shared(lanes(sc, -stride))
            cp = b.load_shared(lanes(sc, +stride))
            dm = b.load_shared(lanes(sd, -stride))
            dp = b.load_shared(lanes(sd, +stride))
            bc = b.load_shared(lanes(sb_))
            k1 = b.sfu(am, bc)  # division by the pivot
            k2 = b.sfu(ap, bc)
            na = b.alu(am, cm, k1)
            nc = b.alu(cp, k2)
            nd = b.alu(dm, dp, k1)
            nd = b.alu(nd, k2)
            b.barrier()
            b.store_shared(lanes(sa), na)
            b.store_shared(lanes(sc), nc)
            b.store_shared(lanes(sd), nd)
            b.barrier()
        for arr, sbase in enumerate((sa, sc, sd)):
            v = b.load_shared(lanes(sbase))
            b.store_global(coalesced(_MID, system * 3 * nwords + arr * nwords + lane0), v)

    def _substitute_phase(b, system, lane0, lanes):
        sys_elem = system * 4 * nwords
        # Re-read the original coefficients (the cacheable reuse) and
        # the reduced system.
        coeffs = [
            b.load_global(coalesced(_IN, sys_elem + arr * nwords + lane0))
            for arr in range(4)
        ]
        mids = [
            b.load_global(coalesced(_MID, system * 3 * nwords + arr * nwords + lane0))
            for arr in range(3)
        ]
        x = b.sfu(mids[2], mids[0])
        x = b.alu(x, mids[1], coeffs[0])
        b.store_shared(lanes(sa), x)
        b.barrier()
        left = b.load_shared(lanes(sa, -1))
        x2 = b.alu(x, left, coeffs[1])
        x2 = b.alu(x2, coeffs[2], coeffs[3])
        b.store_global(coalesced(_OUT, system * nwords + lane0), x2)

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)
