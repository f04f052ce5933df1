"""A fixed reference task that times the machine, not the program.

    python3 perfbench/reference.py

It mixes the kinds of work the qcongruence CLI does: start the interpreter
and import numpy, convolve uint64 arrays, multiply large Python integers,
and run a plain Python loop.  It shares no code with the package, so its
time changes with the machine's speed only.  Dividing an operation's time by
it gives a figure that a slow spell of a shared machine moves much less than
seconds.  Prints a checksum so the work cannot be skipped.
"""

import numpy as np

CONVOLUTIONS = 8
LENGTH = 3000
BIG_PRODUCTS = 8
BIG_BITS = 200_000
LOOP = 400_000


def main() -> int:
    a = np.arange(1, LENGTH + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    b = a[::-1].copy()
    acc = np.uint64(0)
    for _ in range(CONVOLUTIONS):
        acc ^= np.bitwise_xor.reduce(np.convolve(a, b))
        a = a + np.uint64(1)
    x = (1 << BIG_BITS) // 3
    big = 0
    for i in range(BIG_PRODUCTS):
        big ^= (x + i) * (x - i) >> (BIG_BITS * 2 - 64)
    s = 0
    for i in range(LOOP):
        s = (s + i * i) & 0xFFFFFFFF
    print(int(acc) ^ big ^ s)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
