"""Exact oracles of the erased-Werner sweeps, derived with sympy.

Everything here is exact arithmetic on symbols or rationals; no float
enters before a test converts a result to compare it with the package:

- ``dew_exact(eta, omega)``: the doubly-erased Werner state, the Werner
  state pushed through the erasure channel on each qubit by its Kraus
  operators;
- ``swap_element_exact(rho_ab, rho_cd, effect)``: the endpoint element
  Tr_BC[(1 (x) E (x) 1)(rho_AB (x) rho_CD)] of a three-party line;
- ``SUCCESS``: the successful-swap effect, the singlet projector on the
  qubit block of a qutrit pair;
- ``swap_threshold_exact(n)``: the activation threshold (1/3)^(1/(n-1)), the
  visibility omega above which the Werner(omega^(n-1)) that n - 2
  successful swaps leave between the endpoints of an n-party line of
  Werner(omega) sources is entangled;
- ``eta_boundary_exact(omega)``: the unsteerability boundary
  eta = (2/3)(1 - omega) of the DEW sources, where the erased-state
  criterion's value 3 eta / 2 + omega on the Werner Bloch data
  (a = 0, T = -omega I) is exactly 1.

With eta and omega as symbols, ``swap_element_exact`` of two DEW sources
through ``SUCCESS`` is (eta^2 / 4) DEW(eta, omega^2), the n = 3 case of
the swap identity; with associativity it gives the closed form
(eta^2 / 4)^(n-2) DEW(eta, omega^(n-1)) of the all-success element at
every n.
"""

import functools

import sympy as sp

ETA, OMEGA = sp.symbols("eta omega", positive=True)


def _ket(i: int, d: int) -> sp.Matrix:
    return sp.eye(d)[:, i]


def _singlet(d: int) -> sp.Matrix:
    """The singlet (|01> - |10>) / sqrt(2) on the qubit block of a d x d pair."""
    return (sp.kronecker_product(_ket(0, d), _ket(1, d))
            - sp.kronecker_product(_ket(1, d), _ket(0, d))) / sp.sqrt(2)


def werner_exact(omega) -> sp.Matrix:
    """omega * singlet + (1 - omega) * I / 4 on two qubits."""
    psi = _singlet(2)
    return omega * psi * psi.T + (1 - omega) * sp.eye(4) / 4


def _erasure_kraus(eta) -> list:
    """Kraus operators (3 x 2) of the erasure channel: the qubit survives
    with probability eta, and is otherwise replaced by the flag |2>."""
    keep = sp.sqrt(eta) * sp.Matrix([[1, 0], [0, 1], [0, 0]])
    lose = [sp.sqrt(1 - eta) * _ket(2, 3) * _ket(i, 2).T for i in range(2)]
    return [keep] + lose


def dew_exact(eta, omega) -> sp.Matrix:
    """The 9 x 9 doubly-erased Werner state on a qutrit pair."""
    rho = werner_exact(omega)
    kraus = _erasure_kraus(eta)
    out = sp.zeros(9, 9)
    for left in kraus:
        for right in kraus:
            k = sp.kronecker_product(left, right)
            out += k * rho * k.T        # the Kraus operators are real
    return out.applyfunc(sp.expand)


SUCCESS = _singlet(3) * _singlet(3).T


def swap_element_exact(rho_ab: sp.Matrix, rho_cd: sp.Matrix, effect: sp.Matrix) -> sp.Matrix:
    """Tr_BC[(1 (x) E (x) 1)(rho_AB (x) rho_CD)] for qutrit pairs:
    R[a d, a' d'] = sum E[b c, b' c'] rho_AB[a b', a' b] rho_CD[c' d, c d'],
    summed over the nonzero entries of E only."""
    d = 3
    out = sp.zeros(d * d, d * d)
    for (row, col), e in effect.todok().items():
        b, c = divmod(row, d)
        bp, cp = divmod(col, d)
        for a in range(d):
            for ap in range(d):
                left = rho_ab[a * d + bp, ap * d + b]
                if left == 0:
                    continue
                for dd in range(d):
                    for dp in range(d):
                        out[a * d + dd, ap * d + dp] += e * left * rho_cd[cp * d + dd, c * d + dp]
    return out.applyfunc(sp.expand)


@functools.lru_cache(maxsize=None)
def symbolic_swap_element() -> sp.Matrix:
    """The successful-swap element of two DEW(eta, omega) sources, with eta
    and omega as symbols."""
    rho = dew_exact(ETA, OMEGA)
    return swap_element_exact(rho, rho, SUCCESS)


def swap_threshold_exact(n: int) -> sp.Expr:
    return sp.Rational(1, 3) ** sp.Rational(1, n - 1)


def eta_boundary_exact(omega) -> sp.Expr:
    return sp.Rational(2, 3) * (1 - omega)
