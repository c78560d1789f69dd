"""Device topology and the two communication cost primitives.

A topology is a set of identical servers, each holding the same number of
GPUs.  Devices are numbered server-major, so devices ``[s*g, (s+1)*g)`` live
on server ``s``.  Bandwidths are bytes per second; links inside one server
are fast (NVLink class), links between servers go over the network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

# 130 GB/s NVLink-class links inside a server, 25 Gbit/s Ethernet between.
DEFAULT_INTRA_BW = 130e9
DEFAULT_INTER_BW = 25e9 / 8


class TopologyError(Exception):
    """Raised for malformed topology configurations."""


@dataclass(frozen=True)
class DeviceTopology:
    """Homogeneous multi-server GPU cluster."""

    num_servers: int
    gpus_per_server: int
    intra_bw: float = DEFAULT_INTRA_BW
    inter_bw: float = DEFAULT_INTER_BW

    def __post_init__(self) -> None:
        if self.num_servers < 1 or self.gpus_per_server < 1:
            raise TopologyError("topology needs at least one server with one GPU")
        if not (self.intra_bw > 0 and self.inter_bw > 0):
            raise TopologyError("bandwidths must be positive")

    @property
    def num_devices(self) -> int:
        return self.num_servers * self.gpus_per_server

    def server_of(self, device: int) -> int:
        if not 0 <= device < self.num_devices:
            raise TopologyError(f"device {device} out of range")
        return device // self.gpus_per_server

    def bandwidth(self, a: int, b: int) -> float:
        """Link bandwidth between two devices; a device to itself is infinite."""
        if a == b:
            self.server_of(a)
            return float("inf")
        return self.intra_bw if self.server_of(a) == self.server_of(b) else self.inter_bw

    def normalized(self) -> "DeviceTopology":
        """Same layout with the fast link scaled to 1.0.

        Used with jointly normalized profile arrays, where compute and
        payload carry no physical units.
        """
        return DeviceTopology(
            num_servers=self.num_servers,
            gpus_per_server=self.gpus_per_server,
            intra_bw=1.0,
            inter_bw=self.inter_bw / self.intra_bw,
        )


PRESETS = {
    "configa": DeviceTopology(num_servers=2, gpus_per_server=8),
    "configb": DeviceTopology(num_servers=3, gpus_per_server=8),
    "configc": DeviceTopology(num_servers=4, gpus_per_server=8),
}


def load_topology(spec: str) -> DeviceTopology:
    """Resolve a preset name (configA/configB/configC) or a JSON config file.

    A file holds {"servers": int, "gpus_per_server": int} plus optional
    bandwidths, either "intra_bw"/"inter_bw" in bytes per second or the
    conventional units "intra_bw_GBps" (GB/s) and "inter_bw_Gbps" (Gbit/s).
    """
    preset = PRESETS.get(spec.lower())
    if preset is not None:
        return preset
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TopologyError(f"{spec!r} is neither a preset name nor a readable file") from exc
    except json.JSONDecodeError as exc:
        raise TopologyError(f"{spec} is not valid JSON: {exc}") from exc
    try:
        intra = float(data["intra_bw"]) if "intra_bw" in data else DEFAULT_INTRA_BW
        if "intra_bw_GBps" in data:
            intra = float(data["intra_bw_GBps"]) * 1e9
        inter = float(data["inter_bw"]) if "inter_bw" in data else DEFAULT_INTER_BW
        if "inter_bw_Gbps" in data:
            inter = float(data["inter_bw_Gbps"]) * 1e9 / 8
        return DeviceTopology(
            num_servers=int(data["servers"]),
            gpus_per_server=int(data["gpus_per_server"]),
            intra_bw=intra,
            inter_bw=inter,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed topology config {spec}: {exc}") from exc


def transfer_time(num_bytes: float, src: int, dst: int, topo: DeviceTopology) -> float:
    """Seconds to move a payload between two devices; zero on the same device."""
    if num_bytes < 0:
        raise ValueError("payload must be non-negative")
    if src == dst:
        topo.server_of(src)
        return 0.0
    return num_bytes / topo.bandwidth(src, dst)


def allreduce_time(num_bytes: float, devices: Sequence[int], topo: DeviceTopology) -> float:
    """Ring allreduce time over a device group, in the order given.

    The ring is bottlenecked by its slowest link, including the wrap-around
    link, giving 2*(n-1)/n * bytes / min_bw.  Groups of one device cost
    nothing.  A ring that visits more than one server crosses the network
    at least twice, so its slowest link is the network whenever the network
    is the slower of the two link kinds; only a network faster than the
    links inside a server needs the links one by one.
    """
    if num_bytes < 0:
        raise ValueError("payload must be non-negative")
    n = len(devices)
    if n == 0:
        return 0.0
    lo, hi = min(devices), max(devices)
    spans_servers = topo.server_of(lo) != topo.server_of(hi)
    if n == 1 or num_bytes == 0:
        return 0.0
    if not spans_servers and lo != hi:
        min_bw = topo.intra_bw
    elif spans_servers and topo.inter_bw <= topo.intra_bw:
        min_bw = topo.inter_bw
    else:  # one device repeated, or a network faster than the server links
        min_bw = min(topo.bandwidth(devices[i], devices[(i + 1) % n]) for i in range(n))
    return 2.0 * (n - 1) / n * num_bytes / min_bw
