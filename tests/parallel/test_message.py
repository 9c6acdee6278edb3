"""Traffic accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.parallel.message import TrafficLog


class TestTrafficLog:
    def test_record_bulk(self):
        log = TrafficLog(4)
        log.record_bulk(0, 3, n_bytes=400, count=4, tag="migration")
        assert log.bytes_sent[0] == 400
        assert log.messages_sent[0] == 4
        assert log.by_tag["migration"].bytes == 400
        assert log.by_tag["migration"].messages == 4

    @pytest.mark.parametrize("src,dst", [(-1, -1), (-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_record_bulk_rejects_out_of_range_endpoints(self, src, dst):
        """A negative endpoint used to wrap round and charge the last PE."""
        log = TrafficLog(4)
        with pytest.raises(ConfigurationError):
            log.record_bulk(src, dst, 100)
        assert log.total_bytes == 0 and not log.bytes_received.any()

    def test_record_per_pe_equals_one_record_bulk_per_pe(self):
        import numpy as np

        sent = np.array([10, 0, 30, 5])
        received = np.array([0, 40, 5, 0])
        messages = np.array([1, 0, 3, 2])
        bulk, per_pe = TrafficLog(4), TrafficLog(4)
        per_pe.record_per_pe(sent, received, messages, tag="migration")
        for pe in range(4):
            bulk.record_bulk(pe, pe, int(sent[pe]), count=int(messages[pe]), tag="migration")
        bulk.bytes_received[...] = received
        assert per_pe.summary() == bulk.summary()
        for name in ("bytes_sent", "bytes_received", "messages_sent"):
            assert getattr(per_pe, name).tolist() == getattr(bulk, name).tolist()

    def test_record_per_pe_rejects_bad_totals(self):
        import numpy as np

        log = TrafficLog(4)
        good = np.array([1, 2, 3, 4])
        for bad in (np.array([1, 2, 3]), np.array([1, 2, 3, 4, 5]), np.array([1, -2, 3, 4]),
                    np.ones((4, 1), dtype=int)):
            for args in ((bad, good, good), (good, bad, good), (good, good, bad)):
                with pytest.raises(ConfigurationError):
                    log.record_per_pe(*args, tag="halo")
        assert log.total_bytes == 0 and log.by_tag == {}

    def test_total_bytes(self):
        log = TrafficLog(3)
        log.record_bulk(0, 1, 10)
        log.record_bulk(1, 2, 20)
        assert log.total_bytes == 30

    def test_untagged_messages_not_in_by_tag(self):
        log = TrafficLog(2)
        log.record_bulk(0, 1, n_bytes=5)
        assert log.by_tag == {}
        assert log.total_bytes == 5

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            TrafficLog(0)

    def test_summary(self):
        log = TrafficLog(3)
        log.record_bulk(0, 1, n_bytes=100, count=2, tag="halo")
        log.record_bulk(1, 2, n_bytes=50, count=1, tag="migration")
        log.record_bulk(0, 2, n_bytes=25, count=1, tag="halo")
        summary = log.summary()
        assert summary["total_bytes"] == 175
        assert summary["total_messages"] == 4
        assert summary["max_pe_bytes_sent"] == 125
        assert summary["by_tag"] == {
            "halo": {"bytes": 125, "messages": 3},
            "migration": {"bytes": 50, "messages": 1},
        }
