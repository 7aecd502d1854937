"""The warm-up task every benchmark process runs once before it measures.

It imports only nahmlab, so a fresh interpreter that runs this module pays
exactly the package's import cost plus one small flow and its checks.
"""

import nahmlab


def warmup() -> None:
    spec = nahmlab.AlgebraSpec("su", 2)
    grid = nahmlab.Grid(0.0, 1.0, 200)
    exact = nahmlab.nil_solution(spec, grid)
    d = nahmlab.integrate_nahm(spec, tuple(c.values[0] for c in (exact.T1, exact.T2, exact.T3)), grid)
    nahmlab.mu_nahm(d)
    nahmlab.conservation_check(d)


if __name__ == "__main__":
    warmup()
