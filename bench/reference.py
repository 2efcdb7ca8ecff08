"""Fixed CPU work that does not use qcohere, used to gauge the host's speed.

The benchmark times this job before and after every CLI run and rescales
the run's timings to a host on which the job takes ``run.REFERENCE_S``.  The
loop is the same kind of work as the package's hot path: Jacobi rotations
on a 4x4 complex matrix held in Python lists.  It must never change, or
timings taken before and after the change stop being comparable.
"""

import math

ITERATIONS = 8000
SWEEPS = 6
DIM = 4


def kernel(iterations: int = ITERATIONS) -> float:
    total = 0.0
    for it in range(iterations):
        a = [[complex((i * 7 + j * 3 + it) % 11 - 5, (i - j) % 3) for j in range(DIM)] for i in range(DIM)]
        for i in range(DIM):
            for j in range(i):
                a[i][j] = a[j][i].conjugate()
            a[i][i] = complex(a[i][i].real, 0.0)
        for _sweep in range(SWEEPS):
            for p in range(DIM - 1):
                for q in range(p + 1, DIM):
                    apq = a[p][q]
                    g = abs(apq)
                    if g < 1e-13:
                        continue
                    pbar = (apq / g).conjugate()
                    th = 0.5 * math.atan2(2.0 * g, a[p][p].real - a[q][q].real)
                    c, s = math.cos(th), math.sin(th)
                    for row in a:
                        x, y = row[p], row[q]
                        row[p] = c * x + s * pbar * y
                        row[q] = c * pbar * y - s * x
        total += a[0][0].real
    return total


if __name__ == "__main__":
    kernel()
