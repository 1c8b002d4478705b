import numpy as np
import pytest

from invarcurves.rational import Polynomial, RationalMap


def random_polynomial(rng, degree):
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    while abs(c[-1]) < 0.3:
        c[-1] = rng.normal() + 1j * rng.normal()
    return Polynomial(c)


def random_rational_map(rng, degree):
    """Random map of exact degree; denominator degree drawn in [0, degree]."""
    num_deg = degree
    den_deg = int(rng.integers(0, degree + 1))
    if rng.uniform() < 0.3:
        num_deg, den_deg = den_deg, num_deg
        num_deg = max(num_deg, 0)
    if max(num_deg, den_deg) != degree:
        num_deg = degree
    f = RationalMap(random_polynomial(rng, num_deg), random_polynomial(rng, den_deg))
    if f.degree != degree:   # an accidental common factor; extremely unlikely
        return random_rational_map(rng, degree)
    return f


def random_sphere_points(rng, n):
    """Complex samples roughly uniform on the sphere (finite ones only)."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    w = np.clip(v[:, 2], -0.999999, 0.999999)
    return (v[:, 0] + 1j * v[:, 1]) / (1.0 - w)


def mp_chain_identity_residual(left_chain, right_chain, n_points=None, dps=40):
    """Oracle for rational.chain_identity_residual, in mpmath at dps digits.

    Same unit-circle sample and projective chordal metric, but its own
    Horner, one point at a time in arbitrary precision.
    """
    mpmath = pytest.importorskip("mpmath")
    mp, mpc = mpmath.mp, mpmath.mpc
    chains = (left_chain, right_chain)
    deg = max(int(np.prod([f.degree for f in chain]) or 1) for chain in chains)
    m = n_points or (2 * deg + 5)

    def value_pair(chain, z):
        # innermost first: f applied to p/q via Horner on sum c_k p^k q^(d-k)
        p, q = z, mpc(1)
        for f in reversed(chain):
            d = f.degree
            num_c = list(f.num.coefficients) + [0] * (d - f.num.degree)
            den_c = list(f.den.coefficients) + [0] * (d - f.den.degree)
            qpow = [mpc(1)]
            for _ in range(d):
                qpow.append(qpow[-1] * q)
            pn, qn = mpc(num_c[d]), mpc(den_c[d])
            for k in range(d - 1, -1, -1):
                pn = pn * p + mpc(num_c[k]) * qpow[d - k]
                qn = qn * p + mpc(den_c[k]) * qpow[d - k]
            p, q = pn, qn
        return p, q

    with mp.workdps(dps):
        worst = 0.0
        for k in range(m):
            z = mp.expjpi(2 * (mp.mpf(k) / m + mp.mpf("0.2371")))
            p1, q1 = value_pair(left_chain, z)
            p2, q2 = value_pair(right_chain, z)
            n1 = mp.sqrt(abs(p1) ** 2 + abs(q1) ** 2)
            n2 = mp.sqrt(abs(p2) ** 2 + abs(q2) ** 2)
            worst = max(worst, float(2 * abs(p1 * q2 - p2 * q1) / (n1 * n2)))
        return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
