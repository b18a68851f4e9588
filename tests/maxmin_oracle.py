"""Dict-based max-min fill: the test oracle for ``maxmin_fill``.

A literal transcription of progressive filling, kept out of the shipped
fabric.  Each round scans every link's user list to find the most
constrained link, fixes its unfixed flows at the link's fair share and
charges that rate to their other link.  The fabric's indexed
:func:`repro.sim.network.maxmin_fill` must match it *bit-for-bit*: the
rates feed completion-event timestamps, so even a 1-ulp drift would
change same-seed digests.
"""

import math
from typing import Dict, List

_EPS = 1e-9


def maxmin_flow_rates(flows, links) -> List[float]:
    """Progressive-filling max-min fair rates for cross-host flows.

    Each flow (anything with ``src``/``dst``) crosses ``links[src].up``
    and ``links[dst].down``, scaled by the host's ``nic_scale`` when the
    link object has one.  Links are scanned in first-occurrence order
    over the flow list (src uplink before dst downlink per flow), and a
    link wins a round only when its share beats the best so far by more
    than ``_EPS``.
    """
    n = len(flows)
    rates = [0.0] * n
    if n == 0:
        return rates
    # remaining capacity per (host, direction) link
    cap: Dict[tuple, float] = {}
    users: Dict[tuple, List[int]] = {}
    for i, flow in enumerate(flows):
        src_links, dst_links = links[flow.src], links[flow.dst]
        src_scale = getattr(src_links, "nic_scale", 1.0)
        dst_scale = getattr(dst_links, "nic_scale", 1.0)
        for key, capacity in (
            ((flow.src, "up"), src_links.up * src_scale),
            ((flow.dst, "down"), dst_links.down * dst_scale),
        ):
            cap.setdefault(key, capacity)
            users.setdefault(key, []).append(i)
    unfixed = set(range(n))
    while unfixed:
        # find the most constrained link
        best_key = None
        best_share = math.inf
        for key, flow_ids in users.items():
            active = [i for i in flow_ids if i in unfixed]
            if not active:
                continue
            share = cap[key] / len(active)
            if share < best_share - _EPS:
                best_share = share
                best_key = key
        if best_key is None:
            break
        for i in [i for i in users[best_key] if i in unfixed]:
            rates[i] = best_share
            unfixed.discard(i)
            # charge this flow's rate to its other link
            for key in ((flows[i].src, "up"), (flows[i].dst, "down")):
                if key != best_key:
                    cap[key] = max(0.0, cap[key] - best_share)
        cap[best_key] = 0.0
    return rates
