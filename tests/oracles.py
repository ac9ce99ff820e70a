"""Reference implementations that tests compare the library against."""

import itertools

import numpy as np


def theta_brute(z, B, radius: int = 30) -> complex:
    """Box-sum oracle over |n_i| <= radius (exponential cost in g)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    B = np.asarray(B, dtype=complex)
    g = len(z)
    total = 0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        n = np.asarray(n, dtype=float)
        total += np.exp(2j * np.pi * (0.5 * n @ B @ n + n @ z))
    return complex(total)

