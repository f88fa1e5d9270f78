"""Tests for the NoC and DRAM models."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AllocationError, ConfigurationError, DeviceMemoryError
from repro.wormhole.counters import CycleCounter
from repro.wormhole.dram import Dram
from repro.wormhole.noc import Noc, NocCoordinate
from repro.wormhole.params import WORMHOLE_N300

_REPO = Path(__file__).resolve().parents[2]
_EXHAUSTION_TEST = "tests/wormhole/test_noc_dram.py::TestDram::test_exhaustion"


class TestNocCoordinate:
    def test_hops_torus_wraparound(self):
        a = NocCoordinate(0, 0)
        b = NocCoordinate(7, 7)
        # On an 8x8 torus the far corner is 1+1 hops, not 7+7.
        assert a.hops_to(b, 8, 8) == 2

    def test_hops_straight_line(self):
        assert NocCoordinate(1, 1).hops_to(NocCoordinate(4, 1), 8, 8) == 3

    def test_hops_symmetric(self):
        a, b = NocCoordinate(2, 5), NocCoordinate(6, 1)
        assert a.hops_to(b, 8, 8) == b.hops_to(a, 8, 8)


class TestNoc:
    def test_invalid_noc_id(self):
        with pytest.raises(ConfigurationError):
            Noc(5)

    def test_transaction_cost_scales_with_bytes(self):
        noc = Noc(0)
        small = noc.transaction_cycles(64)
        large = noc.transaction_cycles(64 * 1024)
        assert large > small
        # bandwidth term: delta matches bytes/width
        expected_delta = (64 * 1024 - 64) / WORMHOLE_N300.noc_bytes_per_cycle
        assert large - small == pytest.approx(expected_delta)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Noc(0).transaction_cycles(-1)

    def test_read_write_accounting(self):
        noc = Noc(0)
        counter = CycleCounter()
        noc.read(counter, 4096, NocCoordinate(0, 0), NocCoordinate(3, 0))
        noc.write(counter, 2048)
        assert noc.stats.transactions == 2
        assert noc.stats.bytes_read == 4096
        assert noc.stats.bytes_written == 2048
        assert noc.stats.total_hops == 3
        assert counter.datamove_cycles > 0
        assert counter.compute_cycles == 0  # NoC never lands on compute


class TestDram:
    def test_allocate_within_capacity(self):
        dram = Dram()
        a = dram.allocate(1024)
        assert a.size == 1024
        assert dram.allocated_bytes == 1024

    def test_capacity_is_12_gb(self):
        assert Dram().capacity == 12 * 1024**3

    def test_exhaustion(self):
        dram = Dram()
        dram.allocate(dram.capacity - 32)
        with pytest.raises(AllocationError, match="exhausted"):
            dram.allocate(1024)

    def test_write_read_roundtrip(self):
        dram = Dram()
        a = dram.allocate(4096)
        payload = np.arange(512, dtype=np.float64)
        dram.write(a.address, payload.tobytes())
        back = np.frombuffer(dram.read(a.address, 4096), dtype=np.float64)
        assert np.array_equal(back, payload)

    def test_write_at_offset(self):
        dram = Dram()
        a = dram.allocate(128)
        dram.write(a.address + 64, b"\xff" * 8)
        data = dram.read(a.address, 128)
        assert data[64:72] == b"\xff" * 8
        assert data[:64] == b"\x00" * 64

    def test_out_of_bounds_access(self):
        dram = Dram()
        a = dram.allocate(64)
        with pytest.raises(DeviceMemoryError):
            dram.read(a.address + 32, 64)
        with pytest.raises(DeviceMemoryError):
            dram.write(a.address + a.size, b"x")

    def test_access_after_free(self):
        dram = Dram()
        a = dram.allocate(64)
        dram.free(a)
        with pytest.raises(DeviceMemoryError):
            dram.read(a.address, 8)

    def test_double_free(self):
        dram = Dram()
        a = dram.allocate(64)
        dram.free(a)
        with pytest.raises(AllocationError):
            dram.free(a)

    def test_bandwidth_cost_model(self):
        dram = Dram()
        # one full second of traffic at the effective bandwidth: a large
        # interleaved transfer stripes over all six channels
        n = int(WORMHOLE_N300.dram_bandwidth_bytes_per_s)
        cycles = dram.transfer_cycles(n)
        assert cycles == pytest.approx(WORMHOLE_N300.clock_hz)

    def test_banking_model(self):
        """Single-page transfers see one of the six GDDR6 channels; large
        interleaved transfers see all of them; pinned transfers never
        stripe."""
        dram = Dram()
        one_page = dram.transfer_cycles(4096)
        assert one_page == pytest.approx(
            4096 * 6 / WORMHOLE_N300.dram_bandwidth_bytes_per_s
            * WORMHOLE_N300.clock_hz
        )
        six_pages = dram.transfer_cycles(6 * 4096)
        assert six_pages == pytest.approx(one_page)  # 6x data on 6 channels
        pinned = dram.transfer_cycles(6 * 4096, interleaved=False)
        assert pinned == pytest.approx(6 * one_page)
        # partial striping: k <= 6 pages over k channels take constant time
        three = dram.transfer_cycles(3 * 4096)
        assert three == pytest.approx(one_page)

    def test_traffic_counters(self):
        dram = Dram()
        a = dram.allocate(1024)
        counter = CycleCounter()
        dram.write(a.address, b"\x01" * 100, counter)
        dram.read(a.address, 50, counter)
        assert dram.bytes_written == 100
        assert dram.bytes_read == 50
        assert counter.datamove_cycles > 0

    def test_reset_clears_everything(self):
        dram = Dram()
        dram.allocate(1024)
        dram.reset()
        assert dram.allocated_bytes == 0
        assert dram.bytes_read == 0 and dram.bytes_written == 0


class TestDramLazyStorage:
    """Storage appears on an allocation's first write, never earlier."""

    def test_unwritten_allocation_reads_zeros_without_storage(self):
        dram = Dram()
        a = dram.allocate(256)
        assert dram.read(a.address + 32, 64) == bytes(64)
        assert dram.bytes_read == 64
        assert not dram._store

    def test_touch_accounts_without_creating_storage(self):
        dram = Dram()
        a = dram.allocate(4096)
        counter = CycleCounter()
        dram.touch_write(a.address, 4096, counter)
        dram.touch_read(a.address, 4096, counter)
        assert dram.bytes_written == dram.bytes_read == 4096
        assert counter.datamove_cycles == 2 * dram.transfer_cycles(4096)
        assert not dram._store
        with pytest.raises(DeviceMemoryError):
            dram.touch_read(a.address + 1, 4096)

    def test_lookup_among_many_allocations(self):
        dram = Dram()
        allocs = [dram.allocate(64 * (k + 1)) for k in range(8)]
        for k, a in enumerate(allocs):
            dram.write(a.address, bytes([k]) * a.size)
        dram.free(allocs[3])
        for k, a in enumerate(allocs):
            if k == 3:
                with pytest.raises(DeviceMemoryError):
                    dram.read(a.address, 1)
            else:
                assert dram.read(a.address + a.size - 1, 1) == bytes([k])
        # an access may not straddle two neighbouring allocations
        with pytest.raises(DeviceMemoryError):
            dram.read(allocs[5].address + allocs[5].size - 8, 16)
        with pytest.raises(DeviceMemoryError):
            dram.read(-8, 8)
        assert dram.allocated_bytes == sum(
            a.size for k, a in enumerate(allocs) if k != 3
        )

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS is enforced on Linux")
    def test_exhaustion_under_address_space_limit(self):
        """``test_exhaustion`` in a child capped at 2 GiB of address space.

        The near-capacity allocation asks for 12 GiB; recording it must
        not reserve any of that on the host.
        """
        limit = 2 * 1024**3
        script = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "import pytest\n"
            "sys.exit(pytest.main(['-p', 'no:cacheprovider', "
            f"{_EXHAUSTION_TEST!r}]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"  # per-thread BLAS buffers would eat the budget
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=_REPO, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 passed" in proc.stdout
