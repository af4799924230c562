"""The cluster-aware client shim: one tenant, N possible homes.

A :class:`ClusterClient` is an
:class:`~repro.core.elastic.ElasticClient` — the address-virtualizing
shim that keeps a moved tenant's pointers valid — that also tracks
which node currently hosts the tenant. Live migration requires
:attr:`FencingMode.BITWISE` (the cluster enforces it at construction)
because the fence doubles as the migration's pointer-translation
layer. What is specific to the cluster lives here: the current node,
the migration count, refusing every call while the node is down, and
an abort-only close on a crashed node.
"""

from __future__ import annotations

from typing import Optional

from repro.core.elastic import ElasticClient
from repro.errors import NodeDown
from repro.faults.plan import FaultPlan


class ClusterClient(ElasticClient):
    """A tenant's view of the *cluster*: follows its partition around."""

    def __init__(self, node, app_id: str, max_bytes: int,
                 fault_plan: Optional[FaultPlan] = None):
        self._node = node
        self.migrations = 0
        super().__init__(node.dispatch_target, app_id, max_bytes,
                         fault_plan=fault_plan)

    @property
    def node(self):
        """The node currently hosting this tenant's partition."""
        return self._node

    def rebind(self, node, new_base: int) -> None:
        """Point this client at the tenant's new home (see
        :meth:`ElasticClient.rebind`)."""
        super().rebind(node.dispatch_target, new_base)
        self._node = node
        self.migrations += 1

    def _client(self):
        if self._node.crashed:
            raise NodeDown(self.app_id, self._node.node_id)
        return self._inner

    def close(self) -> None:
        if self._node.crashed:
            self._inner.channel.abort()
            return
        super().close()
