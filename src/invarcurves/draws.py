"""Seeded uniform draws: np.random.default_rng(seed).uniform, value for
value, so that a job need not import numpy.random.  Apart from rational.py,
so that the jobs that draw nothing (`semiconj`, `verify`, `example 3`) do
not compile it.
"""

import operator

_M32, _M53, _M64, _M128 = 2 ** 32 - 1, 2 ** 53 - 1, 2 ** 64 - 1, 2 ** 128 - 1


def _seed_hash(const, mult):
    """SeedSequence's hashmix: each call hashes a 32-bit word with the next
    hash constant."""
    def hashmix(v):
        nonlocal const
        v ^= const
        const = const * mult & _M32
        v = v * const & _M32
        return v ^ v >> 16
    return hashmix


class UniformStream:
    """The draws of np.random.default_rng(seed).uniform, call after call:
    SeedSequence's mixing of the seed's 32-bit words seeds PCG64 (a 128-bit
    LCG with XSL-RR output x), and a draw is low + (high - low) (x >> 11) 2**-53."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _seed_hash(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(v) for v in (words + [0] * 4)[:4]]

        def mix(dst, v):
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(v)) & _M32
            pool[dst] = r ^ r >> 16
        for src in range(4):                # every pool word into every other
            for dst in range(4):
                if src != dst:
                    mix(dst, pool[src])
        for v in words[4:]:                 # then each word beyond the pool
            for dst in range(4):
                mix(dst, v)
        # generate_state(4, np.uint64): the LCG's seed and stream, 32 bits at a time
        w = list(map(_seed_hash(0x8B51F9DD, 0x58F38DED), pool * 2))
        self._inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
        s = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self._state = ((self._inc + s) * self._MULT + self._inc) & _M128

    def floats(self, low, high, n):
        """The draws of numpy's uniform(low, high, n) as a list of Python
        floats, bit for bit: one state at a time, on Python's integers."""
        a, c, s, out = self._MULT, self._inc, self._state, []
        for _ in range(n):
            s = (a * s + c) & _M128
            x = (s >> 64 ^ s) & _M64
            # x rotated right by s >> 122, its top 53 bits
            out.append(low + (high - low) * ((((x << 64 | x) >> (s >> 122) + 11) & _M53) * 2.0 ** -53))
        self._state = s
        return out
