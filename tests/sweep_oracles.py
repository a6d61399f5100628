"""Per-point oracles of the grid sweeps.

``run_verify_swap`` and ``run_activation`` build, contract and certify one
block of grid points at a time.  These are the one-point computations they
replace, kept as references: each builds its own ``LinearNetwork`` of DEW
sources (pushed through the erasure channel one factor at a time), contracts
one element with ``assemblage_element`` and certifies it on its own.
"""

import numpy as np

from netsteer.certificates import BlochData, _endpoint_negativities, erased_unsteerable
from netsteer.measurements import bell_swap_povm
from netsteer.network import LinearNetwork, assemblage_element
from netsteer.operators import QOperator, max_entry_distance
from netsteer.states import apply_channel, erasure_channel, werner

SWAP = bell_swap_povm(3)


def dew_channels(eta, omega):
    """The DEW state as two applications of the erasure channel."""
    ch = erasure_channel(eta, 2)
    return apply_channel(ch, apply_channel(ch, werner(omega), 0), 1)


def swap_deviation(eta, omega):
    """Max-entry distance between the successful-swap element of two erased
    Werner sources and (eta^2/4) times the squared-visibility state."""
    src = dew_channels(eta, omega)
    net = LinearNetwork([src, src], [SWAP])
    element = assemblage_element(net, (0,))
    target = dew_channels(eta, omega * omega)
    expected = QOperator(eta * eta / 4.0 * target.matrix, target.dims)
    return max_entry_distance(element, expected)


def activation_point(n_parties, eta, omega):
    """One grid point of the activation sweep: source certificates plus the
    network-steering certificate on the all-successful-swaps element."""
    src = dew_channels(eta, omega)
    n_src = n_parties - 1
    unsteerable, _ = erased_unsteerable(BlochData(np.zeros(3), -omega * np.eye(3)), eta)
    net = LinearNetwork([src] * n_src, [SWAP] * (n_src - 1))
    sigma0 = assemblage_element(net, (0,) * (n_src - 1))
    negs, entangled = _endpoint_negativities(np.stack([src.matrix, sigma0.matrix]), src.dims)
    return {
        "n": n_parties,
        "eta": eta,
        "omega": omega,
        "source_negativity": float(negs[0]),
        "source_unsteerable": bool(unsteerable),
        "swap_visibility": float(omega ** (n_parties - 1)),
        "success_prob": float(sigma0.trace()),
        "sigma0_negativity": float(negs[1]),
        "network_steering": bool(entangled[1]),
    }
