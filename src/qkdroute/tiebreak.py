"""The seeded stream that breaks the routing loop's ties, in pure Python.

``TieBreakStream(seed).integers(k)`` draws exactly what
``numpy.random.default_rng(seed).integers(k)`` draws, call for call, for
seeds from 0 to 2**64 - 1 (the seeds ``RouterConfig`` takes) and k from 1 to
2**32 - 1.  The chain is:

- ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of four
  words and expands the pool into four 64-bit seed words;
- PCG64 (O'Neill 2014) takes its 128-bit state and increment from those
  words and outputs the XSL-RR permutation of each new 128-bit LCG state;
- each 64-bit output serves two 32-bit draws, low half first, and the high
  half is carried to the next draw;
- Lemire's bounded rejection (ACM TOMACS 2019) maps 32-bit draws to
  [0, k); k = 1 consumes no draw.

NEP 19 keeps the PCG64 and SeedSequence streams stable across numpy
versions, but not ``Generator.integers``; owning the last two steps keeps
routing artifacts byte-identical whatever numpy is installed.
"""

from __future__ import annotations

from typing import Optional, Tuple

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> Tuple[int, int]:
    """PCG64's initial state and stream selector from ``SeedSequence(seed)``."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be from 0 to 2**64 - 1, got {seed}")
    # the seed's 32-bit words, low first; 0 is one word, as in numpy
    entropy = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, uint64): eight 32-bit words, paired low word first
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    words = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    return words[0] << 64 | words[1], words[2] << 64 | words[3]


class TieBreakStream:
    """Bounded draws from a seeded PCG64 generator, bit for bit as numpy's."""

    __slots__ = ("_state", "_inc", "_carry")

    def __init__(self, seed: int) -> None:
        initstate, initseq = _seed_words(seed)
        self._inc = (initseq << 1 | 1) & _MASK128
        # the LCG steps from 0, adds the initial state and steps again
        self._state = ((self._inc + initstate) * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._carry: Optional[int] = None

    def _next32(self) -> int:
        if self._carry is not None:
            word, self._carry = self._carry, None
            return word
        state = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        rot = state >> 122
        folded = (state >> 64 ^ state) & _MASK64
        word = (folded >> rot | folded << (64 - rot)) & _MASK64
        self._carry = word >> 32
        return word & _MASK32

    def integers(self, k: int) -> int:
        """A uniform int in [0, k), as ``Generator.integers(k)`` draws it.

        Raises:
            ValueError: unless 1 <= k < 2**32; numpy takes another path
                from 2**32 on, which this stream does not follow.
        """
        if not 0 < k <= _MASK32:
            raise ValueError(f"k must be from 1 to 2**32 - 1, got {k}")
        if k == 1:
            return 0
        scaled = self._next32() * k
        if scaled & _MASK32 < k:
            threshold = (1 << 32) % k
            while scaled & _MASK32 < threshold:
                scaled = self._next32() * k
        return scaled >> 32
