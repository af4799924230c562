"""One relocation contract for all three movers.

Compaction, swap-out followed by swap-in, and cross-node live migration
all move a tenant's partition to a new base behind the same
address-virtualizing shim (:class:`~repro.core.elastic.ElasticClient`,
of which the cluster's :class:`~repro.cluster.client.ClusterClient` is
a subclass). Whatever moved it, the tenant's virtual pointers keep
reading its bytes and feeding its kernels, growth is refused at a
non-zero delta, and shrink still works.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, GuardianCluster
from repro.core.elastic import ElasticClient
from repro.core.server import GuardianServer, ServerConfig
from repro.errors import NodeDown, PartitionError
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.builder import build_module
from repro.ptx.emitter import emit_module

from tests.conftest import saxpy_kernel

PARTITION = 1 << 20
ONES = np.ones(32, dtype=np.float32).tobytes()


def _intra_node():
    """alice sits above a 1 MiB pad on one elastic server."""
    server = GuardianServer(Device(QUADRO_RTX_A4000),
                            config=ServerConfig.elastic())
    server.attach("pad", PARTITION)
    client = ElasticClient(server, "alice", PARTITION)
    server.elastic.bind_client("alice", client)
    return server, client


def compaction():
    server, client = _intra_node()

    def move():
        server.detach("pad")
        assert server.elastic.compact("alice") is not None

    return client, move, None


def swap_round_trip():
    server, client = _intra_node()

    def move():
        server.elastic.swap_out("alice")
        server.detach("pad")  # the swap-in lands in the lower slot
        assert server.elastic.ensure_resident("alice") is not None

    return client, move, None


def migration():
    cluster = GuardianCluster(2, config=ClusterConfig(
        server_config=ServerConfig.elastic()))
    cluster.attach("pad", 1 << 21)
    session = cluster.attach("alice", PARTITION)

    def move():
        target = next(node for node in cluster.nodes
                      if node is not session.node)
        assert cluster.migrate("alice", target=target)

    return session.client, move, session


def relocate(mover):
    """A tenant with data and a kernel result, relocated by ``mover``."""
    client, move, session = mover()
    handles = client.load_module_ptx(
        emit_module(build_module([saxpy_kernel()])))
    buf = client.malloc(512)
    client.memcpy_h2d(buf + 256, ONES)
    client.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                         [buf, buf + 256, 2.0, 32])
    client.synchronize()
    move()
    return client, handles["saxpy"], buf, session


@pytest.fixture(params=[compaction, swap_round_trip, migration],
                ids=["compaction", "swap", "migration"])
def moved(request):
    return relocate(request.param)


class TestRelocation:
    def test_virtual_pointers_survive(self, moved):
        client, handle, buf, _ = moved
        assert client.delta != 0
        y = np.frombuffer(client.memcpy_d2h(buf, 128), np.float32)
        x = np.frombuffer(client.memcpy_d2h(buf + 256, 128), np.float32)
        assert np.allclose(y, 2.0)  # 2*1 + 0, computed before the move
        assert np.allclose(x, 1.0)  # as written
        # Old virtual pointers, new physical base, same handle.
        client.launch_kernel(handle, (1, 1, 1), (32, 1, 1),
                             [buf + 256, buf, 3.0, 32])
        client.synchronize()
        out = np.frombuffer(client.memcpy_d2h(buf + 256, 128), np.float32)
        assert np.allclose(out, 7.0)  # 3*2 + 1

    def test_growth_refused(self, moved):
        client, _, _, _ = moved
        with pytest.raises(PartitionError, match="growth.*relocation"):
            client.grow_partition(2 * PARTITION)

    def test_shrink_works(self, moved):
        client, _, buf, _ = moved
        assert client.shrink_partition() < PARTITION
        out = np.frombuffer(client.memcpy_d2h(buf, 128), np.float32)
        assert np.allclose(out, 2.0)

    def test_crashed_node_raises_nodedown(self):
        client, _, buf, session = relocate(migration)
        session.node.crash("power loss")
        with pytest.raises(NodeDown):
            client.memcpy_d2h(buf, 128)
        with pytest.raises(NodeDown):
            client.shrink_partition()
