"""The stream ``SeedSequence([seed, stream]) -> PCG64`` in Python ints, giving
``Generator.random``'s doubles (PCG64: O'Neill 2014; NEP 19 fixes both bit
streams). ``streams`` draws the same streams as arrays, with these functions,
seeding them by ``state_words`` on arrays.
"""

import operator

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# SeedSequence (numpy.random.bit_generator): a pool of 4 uint32 words, hashed
# with multipliers that advance at every word; and PCG64's LCG multiplier.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n) -> list[int]:
    """SeedSequence's coercion of an int >= 0: uint32 words, lowest first
    (and its errors for anything else)."""
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError("seed must be integer") from None
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> k & _MASK32 for k in range(0, max(n.bit_length(), 1), 32)]


def _output(hi, lo):
    """XSL-RR: the halves xor-ed, rotated right by the top 6 bits (ints or arrays)."""
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot | x << (64 - rot & 63)) & _MASK64


def _mix(x, y):
    out = (x * _MIX_L - y * _MIX_R) & _MASK32
    return out ^ out >> 16


def _double(u):
    """numpy's ``next_double``: the top 53 bits of an output, in [0, 1)."""
    return (u >> 11) * (1.0 / 9007199254740992.0)


def state_words(entropy: list) -> list:
    """SeedSequence's ``generate_state(4, uint64)`` as 8 uint32 words, low
    word of each uint64 first, from ``entropy``: uint32 words, all ints or
    all uint32 arrays with one value per stream (arrays give arrays)."""
    consts = [_INIT_A, _MULT_A]

    def hashmix(value):
        consts[0], value = consts[0] * consts[1] & _MASK32, value ^ consts[0]
        value = value * consts[0] & _MASK32
        return value ^ value >> 16

    zero = entropy[0] & 0  # of the words' own kind: an int beside arrays overflows
    pool = [hashmix(w) for w in (entropy + [zero] * _POOL)[:_POOL]]
    # mix each pool word into the others, then the entropy past the pool into all
    for src in range(max(_POOL, len(entropy))):
        word = pool[src] if src < _POOL else entropy[src]
        for dst in (d for d in range(_POOL) if d != src):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # the pool cycled twice, hashed
    consts[:] = _INIT_B, _MULT_B
    return [hashmix(pool[k % _POOL]) for k in range(2 * _POOL)]


def doubles(seed: int, stream: int):
    """An iterator of ``Generator(PCG64(SeedSequence([seed, stream]))).random()``
    doubles; entropy SeedSequence refuses is refused here, as there."""
    h = state_words(_words(seed) + _words(stream))
    w = [h[k] | h[k + 1] << 32 for k in range(0, 2 * _POOL, 2)]
    # pcg64_set_seed: inc = seq << 1 | 1; state = (inc + seed) * MULT + inc
    inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _MULT + inc) & _MASK128

    def draw(state: int):
        while True:
            state = (state * _MULT + inc) & _MASK128
            yield _double(_output(state >> 64, state & _MASK64))
    return draw(state)
