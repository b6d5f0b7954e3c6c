"""Fixed reference process: a yardstick for the host's speed, not the program.

    python perfbench/reference.py

``run.py`` runs it as a fresh process next to every pipeline and divides the
program's wall times by its wall time (README.md, "Noise"). Like a stage
process it starts an interpreter, imports numpy and ``scipy.optimize`` and
then computes for about as long as the imports took: a COBYLA fit of a small
phase-and-mix loss on a 256-entry state, the shape of the QAOA stage's inner
loop. It uses no code of the package, so a change to the program never
changes it.
"""
import numpy as np
from scipy.optimize import minimize

rng = np.random.default_rng(0)
field = rng.standard_normal(256)


def loss(angles):
    state = np.full(256, 1 / 16, dtype=complex)
    for angle in angles:
        state = np.fft.fft(state * np.exp(-1j * angle * field)) / 16
    return float(np.abs(state) ** 2 @ field)


# A fixed amount of work: tol=1e-12 runs COBYLA to 311 evaluations.
minimize(loss, rng.standard_normal(6), method="COBYLA", tol=1e-12, options={"maxiter": 500})
