"""Seeded input generators shared by the workloads.

Every op index gets its own ``random.Random`` derived from the workload
name, the seed and the index, so the same seed always yields the same
input for op i, however many ops a run gets through.  Nothing here
imports limithodge: inputs are plain integers and lists.
"""

from __future__ import annotations

import random


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def shear_pair(rng: random.Random, dim: int) -> tuple[list[list[int]], list[list[int]]]:
    """A product P of 2*dim integer shears (coefficients in [-2, 2]) and its integer inverse."""
    p = [[int(i == j) for j in range(dim)] for i in range(dim)]
    q = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]  # P <- (I + c e_ij) P
        for row in q:                                    # Q <- Q (I - c e_ij)
            row[j] -= c * row[i]
    return p, q


def int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def dense_gaussian(rng: random.Random, dim: int) -> list[list[tuple[int, int]]]:
    """A dense Gaussian-integer matrix: entries a + b i, |a| <= 2, b in {-2, -1, 1, 2}."""
    return [[(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))) for _ in range(dim)]
            for _ in range(dim)]


def jordan_pair(m: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Lowering operators of S(m) (x) S(n) in the monomial basis, as integer matrices.

    N1 = J_m (x) I, N2 = I (x) J_n with J the nilpotent Jordan block; this
    is the split form of the standard pair up to a diagonal rescaling.
    """
    dim = (m + 1) * (n + 1)

    def idx(a: int, b: int) -> int:
        return a * (n + 1) + b

    n1 = [[0] * dim for _ in range(dim)]
    n2 = [[0] * dim for _ in range(dim)]
    for a in range(m + 1):
        for b in range(n + 1):
            if a + 1 <= m:
                n1[idx(a + 1, b)][idx(a, b)] = 1
            if b + 1 <= n:
                n2[idx(a, b + 1)][idx(a, b)] = 1
    return n1, n2
