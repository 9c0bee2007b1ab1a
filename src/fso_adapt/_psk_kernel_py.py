"""Numpy implementation of the Gray-PSK demodulation/error-count kernel.

This is the portable fallback; the C extension `_psk_kernel`
implements the same contract.  Given pre-drawn randomness the two are
bit-identical: the received sample is formed from the shared
constellation tables with plain multiply/add (no fused contraction on
the compiled side), and the nearest-phase decision is an argmax of dot
products against the same tables, ties resolving to the lowest index in
both.  Both read the random inputs by the same rule (see
``count_bit_errors``).
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

_SQRT_HALF = math.sqrt(0.5)  # per-dimension noise scale for unit total power
# Symbols per pass and (symbols x M) argmax scores per pass: they bound the
# working set to a few MB whatever the batch size.
_SLAB = 1 << 15
_SCORES = 1 << 16


def count_bit_errors(
    amp: np.ndarray,
    m_per_block: np.ndarray,
    u: np.ndarray,
    noise: np.ndarray,
    symbols_per_block: int,
    tab_re: np.ndarray,
    tab_im: np.ndarray,
    tab_offset: np.ndarray,
    popcount: np.ndarray,
) -> int:
    """Count Gray-decoded bit errors over a batch of fading blocks.

    amp:      per-block signal amplitude sqrt(snr) * I, shape (nb,)
    m_per_block: per-block constellation size, 0/1 meaning "no
              transmission"
    u:        uniforms in [0,1), shape (nb * k,)
    noise:    standard normals, shape (2 * nb * k,)

    Read rule: ``u`` and ``noise`` are consumed from the front, in slot
    order.  An outage block (m < 2) reads nothing; a BPSK slot reads the
    next uniform and the next normal (in-phase only); an M >= 4 slot reads
    the next uniform and the next two normals, in-phase first.  Entries
    after the last one read are never touched.
    """
    k = symbols_per_block
    orders = [int(m) for m in np.unique(m_per_block) if m >= 2]
    # Per-block start offsets into u and noise: exclusive cumulative sums
    # of what each block reads.
    sending = (m_per_block >= 2).astype(np.int64)
    normals_per_slot = sending + (m_per_block >= 4)
    u_start = np.cumsum(sending * k) - sending * k
    noise_start = np.cumsum(normals_per_slot * k) - normals_per_slot * k
    n_slots = amp.size * k
    errors = 0
    for start in range(0, n_slots, _SLAB):
        slot = np.arange(start, min(start + _SLAB, n_slots))
        block = slot // k
        within = slot - block * k
        m_sym = m_per_block[block]
        for m in orders:
            sel = np.flatnonzero(m_sym == m)
            if sel.size == 0:
                continue
            b = block[sel]
            a = amp[b]
            base = int(tab_offset[m])
            idx = (u[u_start[b] + within[sel]] * m).astype(np.int64)  # exact: m is a power of two
            in_phase = noise_start[b] + (1 if m == 2 else 2) * within[sel]
            re = a * tab_re[base + idx] + _SQRT_HALF * noise[in_phase]
            if m == 2:
                decided = (re < 0.0).astype(np.int64)
            else:
                im = a * tab_im[base + idx] + _SQRT_HALF * noise[in_phase + 1]
                points_re = tab_re[base : base + m]
                points_im = tab_im[base : base + m]
                decided = np.empty(sel.size, dtype=np.int64)
                step = _SCORES // m
                for lo in range(0, sel.size, step):
                    hi = min(lo + step, sel.size)
                    scores = (
                        re[lo:hi, None] * points_re[None, :]
                        + im[lo:hi, None] * points_im[None, :]
                    )
                    decided[lo:hi] = np.argmax(scores, axis=1)
            sent_gray = idx ^ (idx >> 1)
            decided_gray = decided ^ (decided >> 1)
            errors += int(popcount[sent_gray ^ decided_gray].sum())
    return errors
