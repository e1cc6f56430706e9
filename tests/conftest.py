import pytest

from socle.linalg import GF101
from socle.ring import ring_from_strings
from socle.theorems import _from_rows as module_from_rows, agp_example


def identical(a, b):
    """Same shape, dtype, values and (for object arrays) element types."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    fa, fb = a.reshape(-1).tolist(), b.reshape(-1).tolist()
    return fa == fb and [type(x) for x in fa] == [type(x) for x in fb]


def dense_realize(ring, delta, coeff_module):
    """Block matrix of an RMatrix acting on a coefficient module, as the
    dense array realize built before it emitted sparse rows: block (r, c)
    is the action of the ring element delta[r, c]."""
    F = ring.field
    rows, cols, lam = delta.shape
    n = coeff_module.dim
    ops = coeff_module.ops().reshape(lam, n * n)
    out = F.matmul(delta.reshape(rows * cols, lam), ops)
    return out.reshape(rows, cols, n, n).transpose(0, 2, 1, 3).reshape(
        rows * n, cols * n)


def densify(F, m):
    """The dense array of SparseRows m, every zero that of F.zeros."""
    out = F.zeros(m.shape)
    for r, row in enumerate(m):
        for c, v in row.items():
            out[r, c] = v
    return out


def flat_free_instance(names):
    """Instance file text of k[names]/(names)^2 over GF(101) with M = R,
    presented by a zero row, and N = R/(x)."""
    quadrics = [f"{a}^2" if a == b else f"{a}*{b}"
                for i, a in enumerate(names) for b in names[i:]]
    return ("[ring]\nfield = GF(101)\nvars = " + " ".join(names) + "\n"
            + "".join(f"rel = {q}\n" for q in quadrics)
            + "[module M]\nrow = 0\n[module N]\nrow = x\n")


def cyclic(ring, polystrs):
    """R modulo the ideal generated by the listed elements."""
    return module_from_rows(ring, [polystrs])


@pytest.fixture(scope="session")
def chain3():
    return ring_from_strings(GF101, ["x"], ["x^3"])


@pytest.fixture(scope="session")
def gor():
    """k[x,y]/(x^2, y^2): Gorenstein, length 4."""
    return ring_from_strings(GF101, ["x", "y"], ["x^2", "y^2"])


@pytest.fixture(scope="session")
def flat():
    """k[x,y]/(x^2, xy, y^2): m^2 = 0, type 2."""
    return ring_from_strings(GF101, ["x", "y"], ["x^2", "x*y", "y^2"])


@pytest.fixture(scope="session")
def gor3():
    """k[x,y]/(x^2 - y^2, xy): Gorenstein with m^3 = 0, m^2 != 0."""
    return ring_from_strings(GF101, ["x", "y"], ["x^2 - y^2", "x*y"])


@pytest.fixture(scope="session")
def agp():
    """The rank-two periodic instance: (ring, M = coker phi)."""
    return agp_example()
