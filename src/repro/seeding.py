"""Process-stable seed derivation and the project's one SplitMix64.

``hash(str)`` is salted per interpreter process (``PYTHONHASHSEED``),
so a seed like ``hash(name) ^ base_seed`` draws *different* values in
every run and in every pool worker started under a different salt — the
exact failure mode the ``seed-flow`` analysis rule exists to catch.
These helpers are the sanctioned replacement: same text, same seed, in
every process, forever.

:func:`splitmix64` is Sebastiano Vigna's SplitMix64 finaliser, the one
bit mixer behind both the simulator's counter-based noise
(:mod:`repro.sim.noise`) and the observability reservoir stream
(:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import zlib

__all__ = ["MASK64", "SPLITMIX64_GAMMA", "splitmix64", "stable_text_seed"]

#: Knuth's multiplicative constant, used to decorrelate the numeric salt
#: from the text digest (same mixing the call sites already used).
_GOLDEN = 0x9E3779B9

MASK64 = (1 << 64) - 1

#: SplitMix64's stream increment (2**64 / golden ratio, odd).
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z):
    """SplitMix64's finaliser: a bijective mix of the 64-bit word ``z``.

    ``z`` is a Python int in ``[0, 2**64)`` or an ``np.uint64`` array;
    the same expression serves both, since uint64 arithmetic wraps and
    the masks are then no-ops.  The stream with state ``s`` outputs
    ``splitmix64(s + k * SPLITMIX64_GAMMA)`` for ``k = 1, 2, ...``.
    """
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stable_text_seed(text: str, salt: int = 0) -> int:
    """A 32-bit seed derived from ``text`` and ``salt``, process-stable.

    CRC-32 of the UTF-8 text, mixed with the salt; unlike ``hash()``
    it does not depend on the interpreter's per-process hash salt.
    """
    digest = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return digest ^ ((salt * _GOLDEN) & 0xFFFFFFFF)
