"""Workload definitions and input generation.

Inputs are generated from the workload seed with numpy/scipy directly, never
with the package's own generators, so a change to ``sketchsvd.generators``
cannot change what is measured.  The same seed gives the same inputs in the
table processes and in the correctness check.
"""

import numpy as np
import scipy.io
import scipy.sparse as sp

# Each workload is one "table": a CLI invocation (or one pass of the library
# flow) with a fixed amount of work, run in its own process.
WORKLOADS = {
    # The desk `ortho` shape: the gaussian operator (s x m dense, up to
    # 2000 x 20000) dominates both time and memory.
    "ortho-sparse-gaussian": {
        "kind": "cli", "command": "ortho", "sketch": "gaussian",
        "s": "12n,16n,20n", "reps": 1,
    },
    # Small dense input: the n x n small SVD dominates, sketch build and
    # apply are under 5%.
    "nearest-dense-srtt": {
        "kind": "cli", "command": "nearest", "sketch": "srtt",
        "s": "2n,4n,6n,8n,10n,12n", "reps": 4,
    },
    # The README's library flow: sketched QR (one vector apply per column),
    # certificate and orthogonality report per repetition.
    "qr-certify-gaussian": {
        "kind": "library", "sketch": "gaussian", "s_mult": 16, "reps": 3,
    },
}


def seeds_for(seed):
    """(matrix seed, program seed) derived from the workload seed."""
    a, b = np.random.SeedSequence(seed).spawn(2)
    return (int(a.generate_state(1, np.uint64)[0]),
            int(b.generate_state(1, np.uint64)[0]))


def make_matrix(workload, seed):
    """The workload's input matrix, deterministic in ``seed``."""
    rng = np.random.default_rng(seeds_for(seed)[0])
    if workload == "ortho-sparse-gaussian":
        # 20000 x 100 at density 0.01, columns graded to condition ~1e10.
        m, n = 20000, 100
        A = sp.random_array((m, n), density=0.01, format="csc", rng=rng,
                            data_sampler=rng.random)
        # one entry in any column the pattern left empty keeps full rank
        empty = np.flatnonzero(np.diff(A.indptr) == 0)
        if empty.size:
            A = A + sp.csc_array((rng.random(empty.size),
                                  (rng.integers(0, m, empty.size), empty)),
                                 shape=(m, n))
        A = A @ sp.diags_array(np.logspace(0, -10, n))
        return sp.csr_matrix(A)
    if workload == "nearest-dense-srtt":
        return rng.standard_normal((2000, 50))
    if workload == "qr-certify-gaussian":
        # 10000 x 50 Gaussian with columns graded to condition ~1e6.
        return rng.standard_normal((10000, 50)) * np.logspace(0, -6, 50)
    raise ValueError(f"unknown workload {workload!r}")


def write_input(A, path):
    """Write ``A`` as Matrix Market; the round trip is exact."""
    scipy.io.mmwrite(path, A)
