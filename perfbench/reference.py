"""Fixed reference task that measures how fast the host runs right now.

``run.py`` runs it as a child process before every CLI command and once
after the last, and divides each command's wall time by the mean of the two
reference runs around it (see ``run.speed_scaled``). It does what the
commands do, on a fixed scale: start Python, import NumPy, a few dense
forward/backward and Adam steps at LeNet-300-100's first-layer shape, a
sort-and-cumsum selection per step, and a pure-Python loop. It reads and
writes no file and never changes, so a change to the program cannot move it.
"""

import numpy as np

rng = np.random.default_rng(0)
x = rng.standard_normal((128, 784))
w = rng.standard_normal((784, 300)) * 0.05
m = np.zeros_like(w)
v = np.zeros_like(w)
kept = 0
for step in range(1, 9):
    h = np.maximum(x @ w, 0.0)
    g = x.T @ h / 128
    m = 0.9 * m + 0.1 * g
    v = 0.999 * v + 0.001 * g * g
    w -= 1e-3 * m / (np.sqrt(v) + 1e-8)
    col = np.abs(w[:, step])
    order = np.argsort(-col)
    kept += int((np.cumsum(col[order]) < 0.95 * col.sum()).sum())
acc = 0
for i in range(40000):
    acc += i % 7
print(kept + acc)
