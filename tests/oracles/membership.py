"""Join and leave as they were before registrations went in bulk.

``join_mobile_node`` registered the newcomer one neighbour at a time —
``register(key, nb)`` for each mobile neighbour, then ``register(nb, key)``
— and ``leave_mobile_node`` withdrew one pair at a time through
``unregister``, bumping ``op.unregister.count`` once per pair.  Everything
else is the facade's own code of the time, step for step.
``tests/test_membership_registrations.py`` holds the facade equal to these
on twin networks.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro import sanitize as _sanitize
from repro.core.bristle import BristleNetwork
from repro.core.node import BristleNode

__all__ = ["reference_join", "reference_leave"]


def reference_join(net: BristleNetwork, key: int, capacity: float = 1.0) -> BristleNode:
    """``net.join_mobile_node(key, capacity)`` with per-neighbour registers."""
    net.space.validate(key)
    if key in net.nodes:
        raise ValueError(f"key {key} already present")
    tel = net.telemetry
    sid = tel.tracer.span_begin(net.now, "op.join", key=key) if tel.tracer.enabled else 0
    node = BristleNode(key=key, mobile=True, capacity=capacity, space=net.space)
    node.address = net.placement.attach(key)
    net.nodes[key] = node
    insort(net.mobile_keys, key)
    net._mobile_set.add(key)
    net.num_mobile += 1
    net.mobile_layer.add_node(key)
    tel.metrics.counter("overlay.mobile.add_node").inc()
    net.directory.publish(key, node.address, now=net.now, ttl=net.config.state_ttl)
    issued = 0
    for nb in net.mobile_layer.neighbors_of(key):
        if net.is_mobile(nb):
            net.registrations.register(key, nb, now=net.now)
            issued += 1
        net.registrations.register(nb, key, now=net.now)
        issued += 1
    tel.metrics.counter("op.join.count").inc()
    tel.metrics.histogram("op.join.registrations").observe(issued)
    if _sanitize.ACTIVE:
        _sanitize.check_overlay_consistency(net.mobile_layer, key)
    if sid:
        tel.tracer.span_end(net.now, sid, registrations=issued)
    return node


def reference_leave(net: BristleNetwork, key: int) -> None:
    """``net.leave_mobile_node(key)`` with per-pair unregisters."""
    node = net.nodes.get(key)
    if node is None or not node.mobile:
        raise ValueError(f"{key} is not a mobile member")
    tel = net.telemetry
    sid = tel.tracer.span_begin(net.now, "op.leave", key=key) if tel.tracer.enabled else 0
    net.directory.withdraw(key)
    withdrawn = len(node.subscriptions) + len(node.registry)
    for target in list(node.subscriptions):
        net.registrations.unregister(key, target)
    for registrant in list(node.registry):
        net.registrations.unregister(registrant, key)
    for g in net._groups_of.pop(key, ()):
        del net._ldt_cache[g]
        for other in g:
            if other != key:
                net._groups_of[other].remove(g)
    net.mobile_layer.remove_node(key)
    net.placement.detach(key)
    del net.mobile_keys[bisect_left(net.mobile_keys, key)]
    net._mobile_set.discard(key)
    net.num_mobile -= 1
    del net.nodes[key]
    tel.metrics.counter("op.leave.count").inc()
    tel.metrics.counter("overlay.mobile.remove_node").inc()
    tel.metrics.histogram("op.leave.unregistrations").observe(withdrawn)
    if _sanitize.ACTIVE:
        _sanitize.check_overlay_consistency(net.mobile_layer, key)
    if sid:
        tel.tracer.span_end(net.now, sid, unregistrations=withdrawn)
