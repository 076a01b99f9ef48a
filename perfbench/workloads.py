"""The benchmark's workloads.

Every workload is one cell of a simulation study on one generating model:
it fits series of that model with ``fexpsmc fit`` and draws replicates of
the model with ``simulate_series`` on both sides of the dense/innovations
split.  The cells differ in which layer dominates the fit.  Fits and draws
run in separate processes; the fits process's peak RSS is ``peak_rss_mb``.
"""

import zlib
from dataclasses import dataclass

#: lengths of the two simulate_series draws (either side of n = 8192)
DENSE_N = 4096
INNOV_N = 16384
#: the split the draw paths are named after
DENSE_LIMIT = 8192


@dataclass(frozen=True)
class Model:
    """ARFIMA(0, d, q) generating model with unit innovation variance."""

    d: float
    theta: tuple = ()

    def sim_config(self):
        """Keyword arguments for ``fexpsmc.SimConfig`` of this model."""
        kind = "arfima" if self.theta else "fracnoise"
        return dict(kind=kind, d=self.d, theta_ma=list(self.theta))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: Model
    n: int                    # length of each fitted series
    inputs: int               # distinct series per run, fitted in turn
    N: int                    # smc.N
    M: int                    # smc.M
    subsample: int | None     # correction.subsample; None reweights every particle
    d_tol: float              # allowed |posterior mean d - generating d|

    @property
    def key(self):
        """Stable integer mixed into every seed derived for this workload."""
        return zlib.crc32(self.name.encode())


WORKLOADS = {w.name: w for w in [
    Workload(
        name="smc_short",
        why="short FIMA series, small correction subsample: fit time is SMC "
            "mutation, so it shows batched approximate-likelihood work",
        model=Model(d=0.25, theta=(-0.3, 0.2)),
        # at n = 1000 the posterior of d under a free order k is wide (means of
        # 0.13-0.42 over 15 seeds), so d_tol only catches gross failures here
        n=1000, inputs=4, N=64, M=10, subsample=16, d_tol=0.22,
    ),
    Workload(
        name="correct_exact",
        why="n=3000 fractional noise, every distinct particle reweighted: fit "
            "time and memory are the dense exact likelihood",
        model=Model(d=0.3),
        # M = 100 makes the SMC long enough to time (~17% of the fit); two
        # inputs average out part of the spread that the seed's number of
        # tempering iterations (4-6 at N = 6) puts on fit_s
        n=3000, inputs=2, N=6, M=100, subsample=None, d_tol=0.1,
    ),
]}
