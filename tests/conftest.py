"""Shared fixtures: small, fast instances of every model family."""

from __future__ import annotations

import numpy as np
import pytest

from repro.injection.store import PacketStore
from repro.interference.builders import node_constraint_conflicts
from repro.interference.conflict import ConflictGraphModel
from repro.interference.mac import MultipleAccessChannel
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.routing import build_routing_table
from repro.network.topology import (
    grid_network,
    line_network,
    mac_network,
    random_sinr_network,
)
from repro.sinr.weights import linear_power_model


@pytest.fixture(scope="session")
def sinr_net():
    """A 15-node random geometric network (deterministic)."""
    return random_sinr_network(15, rng=7)


@pytest.fixture(scope="session")
def sinr_model(sinr_net):
    """Linear-power SINR model over ``sinr_net``."""
    return linear_power_model(sinr_net, alpha=3.0, beta=1.0, noise=0.05)


@pytest.fixture(scope="session")
def sinr_routing(sinr_net):
    return build_routing_table(sinr_net)


@pytest.fixture(scope="session")
def mac_net():
    """A 5-station multiple-access channel network."""
    return mac_network(5)


@pytest.fixture(scope="session")
def mac_model(mac_net):
    return MultipleAccessChannel(mac_net)


@pytest.fixture(scope="session")
def chain_net():
    """A 6-node forward chain (paths of length 1..5)."""
    return line_network(6)


@pytest.fixture(scope="session")
def routing_chain(chain_net):
    return build_routing_table(chain_net)


@pytest.fixture(scope="session")
def grid_net():
    return grid_network(3, 3)


@pytest.fixture(scope="session")
def conflict_model(grid_net):
    """Node-constraint conflict model over the 3x3 grid."""
    return ConflictGraphModel(grid_net, node_constraint_conflicts(grid_net))


@pytest.fixture(scope="session")
def packet_routing_model(grid_net):
    return PacketRoutingModel(grid_net)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


class PacketMaker:
    """Hand-built packets for protocol tests.

    Every packet is allocated into one shared :class:`PacketStore`, so
    its id is its allocation order. Build the protocol with
    ``store=maker.store`` and feed the returned indices to
    ``run_frame``.
    """

    def __init__(self):
        self.store = PacketStore()

    def __call__(self, path, slot: int = 0) -> int:
        """Allocate one packet on ``path``, injected at ``slot``."""
        return self.store.allocate(tuple(path), slot)

    def many(self, count: int, path, slot: int = 0) -> list:
        """Allocate ``count`` packets on the same path."""
        return [self(path, slot) for _ in range(count)]

    def views(self, indices):
        """Read-only views of allocated packets (e.g. for audits)."""
        return self.store.views(indices)


@pytest.fixture()
def packets():
    """A fresh :class:`PacketMaker`."""
    return PacketMaker()
