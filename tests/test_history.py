"""Views of the run history and the acked-write verdict, on hand-built rows."""

from repro.scenarios.load import WriteLedger, judge, key_writes
from repro.workloads.history import TOKEN_LEN, History


def op(history, client, name, key, invoke, response, status="ok",
       written=None, read=None):
    history.record(client, name, key, written, invoke, response, status,
                   read)


class TestWindow:
    def test_counts_elapsed_and_dropped(self):
        history = History()
        op(history, 0, "get", b"k", 0.0, 5.0)
        window = history.open(10.0)
        op(history, 0, "get", b"k", 10.0, 20.0, status="not_found")
        op(history, 1, "put", b"k", 12.0, 40.0, status="timeout")
        history.dropped += 2
        op(history, 1, "get", b"k", 30.0, 60.0)
        window.close(260.0)
        assert window.completed == 3
        assert window.failed == 1          # not_found is a success
        assert window.dropped == 2
        assert window.elapsed_us == 250.0
        assert window.throughput_qps == 3 / 250e-6

    def test_mean_sums_per_client_in_client_order(self):
        """The mean adds each client's latencies in completion order,
        client after client, so a figure's raw mean does not depend on
        how the clients' completions interleave."""
        history = History()
        window = history.open(0.0)
        op(history, 0, "get", b"a", 0.0, 1.0)
        op(history, 1, "get", b"b", 0.0, 1.0)
        op(history, 0, "get", b"c", 0.0, 1e16)
        window.close(1e16)
        per_client = [1.0, 1e16, 1.0]
        assert window.latencies_us == per_client
        assert window.mean_latency_us() == sum(per_client) / 3
        assert window.percentile_us(0.5) == 1.0

    def test_summary_counts_drops_against_availability(self):
        history = History()
        window = history.open(0.0)
        op(history, 0, "get", b"a", 0.0, 10.0)
        op(history, 0, "put", b"a", 0.0, 30.0, status="unavailable")
        history.dropped += 2
        summary = window.close(1000.0).summary()
        assert (summary["issued"], summary["ok"], summary["failed"],
                summary["dropped"]) == (4, 1, 1, 2)
        assert summary["availability"] == 0.25
        assert summary["throughput_qps"] == 1000.0

    def test_empty_window(self):
        window = History().open(5.0).close(5.0)
        assert window.completed == window.failed == 0
        assert window.mean_latency_us() == 0.0
        assert window.throughput_qps == 0.0
        assert window.summary()["availability"] == 1.0


class TestVerdict:
    def setup_method(self):
        self.ledger = WriteLedger(64)
        self.history = History()

    def put(self, key, invoke, response, status="ok"):
        value = self.ledger.mint()
        op(self.history, 0, "put", key, invoke, response, status,
           written=value)
        return value

    def sweep(self, reads):
        start = len(self.history)
        for key, status, value in reads:
            op(self.history, 1, "get", key, 1000.0, 1001.0, status,
               read=value)
        return judge(self.history, start)

    def test_tokens_are_unique_and_ordered(self):
        values = [self.ledger.mint() for _ in range(3)]
        assert all(len(value) == 64 for value in values)
        tokens = [value[:TOKEN_LEN] for value in values]
        assert tokens == sorted(set(tokens))

    def test_acked_write_read_back_is_ok(self):
        value = self.put(b"a", 0.0, 10.0)
        assert self.sweep([(b"a", "ok", value)]) == {b"a": "ok"}

    def test_unlearned_later_write_is_indeterminate(self):
        self.put(b"a", 0.0, 10.0)
        later = self.put(b"a", 20.0, 30.0, status="timeout")
        assert self.sweep([(b"a", "ok", later)]) == {b"a": "indeterminate"}

    def test_lost_reads(self):
        self.put(b"gone", 0.0, 10.0)
        self.put(b"preload", 0.0, 10.0)
        older = self.put(b"older", 0.0, 10.0)
        self.put(b"older", 20.0, 30.0)
        verdicts = self.sweep([
            (b"gone", "not_found", None),
            (b"preload", "ok", b"x" * 64),
            (b"older", "ok", older),
        ])
        assert verdicts == {b"gone": "lost", b"preload": "lost",
                            b"older": "lost"}

    def test_racy_key_accepts_any_issued_write(self):
        first = self.put(b"a", 0.0, 50.0)
        self.put(b"a", 10.0, 20.0)           # invoked while the first ran
        _, _, racy = key_writes(self.history, len(self.history))[b"a"]
        assert racy
        assert self.sweep([(b"a", "ok", first)]) == {b"a": "ok"}
        assert self.sweep([(b"a", "ok", b"w" * 64)]) == {b"a": "lost"}

    def test_back_to_back_writes_are_not_racy_but_a_tie_is(self):
        self.put(b"a", 0.0, 10.0)
        self.put(b"a", 11.0, 20.0)
        self.put(b"b", 0.0, 10.0)
        self.put(b"b", 10.0, 20.0)
        racy = {key: writes[2] for key, writes
                in key_writes(self.history, len(self.history)).items()}
        assert racy == {b"a": False, b"b": True}

    def test_last_sweep_read_of_a_key_decides(self):
        value = self.put(b"a", 0.0, 10.0)
        verdicts = self.sweep([(b"a", "timeout", None),
                               (b"a", "ok", value)])
        assert verdicts == {b"a": "ok"}
