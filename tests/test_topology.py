"""Communication costs against a link-by-link ring, and device id checks."""

import numpy as np
import pytest

from autoplan.topology import PRESETS, DeviceTopology, TopologyError, allreduce_time, transfer_time

PAYLOADS = (0.0, 1.0, 3.5e8)


def bandwidth_matrix(topo):
    """Link bandwidth between every two devices; infinite on the diagonal."""
    servers = np.arange(topo.num_devices) // topo.gpus_per_server
    mat = np.where(servers[:, None] == servers[None, :], topo.intra_bw, topo.inter_bw)
    np.fill_diagonal(mat, np.inf)
    return mat


def ring_reference(num_bytes, devices, topo):
    """The slowest of every ring link, wrap-around included, read off the matrix."""
    n = len(devices)
    if n <= 1 or num_bytes == 0:
        return 0.0
    bw = bandwidth_matrix(topo)
    min_bw = min(bw[devices[i], devices[(i + 1) % n]] for i in range(n))
    return 2.0 * (n - 1) / n * num_bytes / min_bw


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_contiguous_groups_match_the_ring(name):
    topo = PRESETS[name]
    d = topo.num_devices
    for start in range(d):
        for end in range(start + 1, d + 1):
            for payload in PAYLOADS:
                group = range(start, end)
                assert allreduce_time(payload, group, topo) == ring_reference(payload, group, topo)


@pytest.mark.parametrize(
    "topo",
    [PRESETS["configb"], DeviceTopology(3, 4, intra_bw=1.0, inter_bw=2.5)],
    ids=["configb", "network-faster"],
)
def test_any_device_order_matches_the_ring(topo):
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        group = [int(v) for v in rng.integers(0, topo.num_devices, size=n)]
        for payload in PAYLOADS:
            assert allreduce_time(payload, group, topo) == ring_reference(payload, group, topo), group


def test_transfers_match_the_matrix():
    topo = PRESETS["configa"]
    bw = bandwidth_matrix(topo)
    for src in range(topo.num_devices):
        for dst in range(topo.num_devices):
            expected = 0.0 if src == dst else 3.5e8 / bw[src, dst]
            assert transfer_time(3.5e8, src, dst, topo) == expected


@pytest.mark.parametrize(
    "devices", [[16], [-1], [3, 16], [16, 3], [-1, 0, 1], range(8, 17)], ids=repr
)
@pytest.mark.parametrize("payload", [0.0, 1.0])
def test_allreduce_rejects_devices_out_of_range(devices, payload):
    with pytest.raises(TopologyError):
        allreduce_time(payload, devices, PRESETS["configa"])


@pytest.mark.parametrize("src, dst", [(16, 16), (-1, -1), (0, 16), (16, 0)])
def test_transfer_rejects_devices_out_of_range(src, dst):
    with pytest.raises(TopologyError):
        transfer_time(1.0, src, dst, PRESETS["configa"])


def test_negative_payload_is_rejected():
    with pytest.raises(ValueError):
        allreduce_time(-1.0, [0, 1], PRESETS["configa"])
    with pytest.raises(ValueError):
        transfer_time(-1.0, 0, 1, PRESETS["configa"])
