"""VSRT v4 chunked trace format: round-trips, edges, and cache behavior.

The streaming trace plane's correctness contract has three parts: the
chunked representation is *indistinguishable* from the in-memory one to
every consumer (same records, same seq numbers, same engine results);
chunk boundaries hide no edge cases (empty traces, exact-multiple
lengths, limits landing mid-chunk); and corruption anywhere in a cache
entry is detected at load and heals by regeneration.
"""

import io
import os

import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.sim import run_baseline
from repro.trace.binary import (
    BinaryTraceError,
    ChunkWriter,
    chunk_layout,
    chunked_entry_info,
    dumps_trace_chunked,
    loads_trace_chunked,
    read_trace_chunked,
    sniff_format,
    write_trace_chunked,
)
from repro.trace.columnar import ChunkedTrace, ColumnarTrace, as_columnar
from repro.trace.synthetic import SyntheticTraceConfig, generate_synthetic_trace


def synth(length: int, seed: int = 11):
    return generate_synthetic_trace(
        SyntheticTraceConfig(length=length, seed=seed)
    )


@pytest.fixture
def records():
    return synth(2_500)


class TestRoundTrip:
    def test_file_round_trip(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        total = write_trace_chunked(records, path, 400)
        assert total == len(records)
        assert sniff_format(path) == "v4"
        trace = read_trace_chunked(path)
        assert isinstance(trace, ChunkedTrace)
        assert len(trace) == len(records)
        assert list(trace) == records

    def test_buffer_round_trip(self, records):
        data = dumps_trace_chunked(records, 400)
        assert sniff_format(data) == "v4"
        trace = loads_trace_chunked(data)
        assert list(trace) == records

    def test_chunk_geometry(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 400)
        trace = read_trace_chunked(path)
        assert trace.chunk_count == 7  # 6 * 400 + tail of 100
        assert trace.counts == (400,) * 6 + (100,)
        info = chunked_entry_info(path)
        assert info["records"] == 2_500
        assert info["chunks"] == 7
        assert info["chunk_records"] == [400] * 6 + [100]
        assert info["chunk_bytes"][0] == chunk_layout(400)[1]

    def test_dumps_of_chunked_trace_preserves_chunk_size(self, records):
        trace = loads_trace_chunked(dumps_trace_chunked(records, 300))
        again = loads_trace_chunked(dumps_trace_chunked(trace))
        assert again.chunk_size == 300
        assert again == trace

    def test_seq_is_global_across_chunks(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 400)
        trace = read_trace_chunked(path)
        for index in (0, 399, 400, 401, 1_234, 2_499):
            assert trace[index].seq == index

    def test_bbvs_one_per_chunk(self, records):
        trace = loads_trace_chunked(dumps_trace_chunked(records, 400))
        bbvs = trace.bbvs()
        assert len(bbvs) == trace.chunk_count
        # Every record lands in some bucket.
        assert [sum(bbv) for bbv in bbvs] == list(trace.counts)


class TestEdges:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.vsrt4"
        assert write_trace_chunked([], path, 400) == 0
        trace = read_trace_chunked(path)
        assert len(trace) == 0
        assert trace.chunk_count == 0
        assert list(trace) == []

    def test_exact_multiple_has_no_empty_tail_chunk(self, tmp_path):
        recs = synth(1_200)
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(recs, path, 400)
        trace = read_trace_chunked(path)
        assert trace.chunk_count == 3
        assert trace.counts == (400, 400, 400)
        assert list(trace) == recs

    def test_single_record(self, tmp_path):
        recs = synth(1)
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(recs, path, 400)
        trace = read_trace_chunked(path)
        assert trace.counts == (1,)
        assert list(trace) == recs

    def test_limit_mid_chunk(self, records):
        # A tail chunk shorter than chunk_size round-trips and indexes.
        trace = loads_trace_chunked(dumps_trace_chunked(records, 999))
        assert trace.counts == (999, 999, 502)
        assert trace[2_499] == records[2_499]
        assert trace[-1] == records[-1]

    def test_slicing_and_negative_index(self, records):
        trace = loads_trace_chunked(dumps_trace_chunked(records, 400))
        assert trace[10:13] == records[10:13]
        assert trace[398:402] == records[398:402]  # crosses a boundary
        assert trace[-5] == records[-5]

    def test_equality(self, records):
        trace = loads_trace_chunked(dumps_trace_chunked(records, 400))
        other = loads_trace_chunked(dumps_trace_chunked(records, 300))
        assert trace == records
        assert trace == other  # same records, different chunking
        assert trace == as_columnar(records)
        assert trace != records[:-1]

    def test_writer_rejects_bad_chunk_size(self, tmp_path):
        with pytest.raises(ValueError):
            ChunkWriter(tmp_path / "t.vsrt4", 0)

    def test_to_records_and_as_columnar(self, records):
        trace = loads_trace_chunked(dumps_trace_chunked(records, 400))
        assert trace.to_records() == records
        assert as_columnar(trace) == as_columnar(records)


class TestBoundedMemory:
    def test_lru_keeps_at_most_two_chunks(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 250)
        trace = read_trace_chunked(path)
        for rec in trace:
            assert len(trace.loaded_chunks) <= 2
        assert rec.seq == len(records) - 1

    def test_rewind_across_boundary_stays_loaded(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 250)
        trace = read_trace_chunked(path)
        # The engine's misspeculation recovery pattern: step forward
        # into chunk k, then rewind into chunk k-1.
        assert trace[251].seq == 251
        assert trace[249].seq == 249
        assert set(trace.loaded_chunks) == {0, 1}

    def test_writer_buffers_at_most_one_chunk(self, tmp_path):
        writer = ChunkWriter(tmp_path / "t.vsrt4", 100)
        for rec in synth(350):
            writer.append(rec)
            assert writer.buffered <= 100
        writer.close()


class TestCorruption:
    def test_truncated_file_detected(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 400)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(BinaryTraceError):
            read_trace_chunked(path)

    def test_corrupt_middle_chunk_detected_by_verify(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 400)
        info = chunked_entry_info(path)
        # Flip a byte inside the third chunk's payload.
        offset = 48 + sum(info["chunk_bytes"][:2]) + 64
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BinaryTraceError):
            read_trace_chunked(path, verify=True)

    def test_corrupt_chunk_detected_lazily_without_verify(
        self, records, tmp_path
    ):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 400)
        info = chunked_entry_info(path)
        offset = 48 + sum(info["chunk_bytes"][:2]) + 64
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        trace = read_trace_chunked(path)
        assert trace[0] == records[0]  # chunk 0 is fine
        with pytest.raises(BinaryTraceError):
            trace[900]  # chunk 2 fails its CRC on load

    def test_index_corruption_detected(self, records, tmp_path):
        path = tmp_path / "t.vsrt4"
        write_trace_chunked(records, path, 400)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # inside the index block
        path.write_bytes(bytes(data))
        with pytest.raises(BinaryTraceError):
            read_trace_chunked(path)

    def test_corrupt_cache_entry_regenerates(self, monkeypatch, tmp_path):
        """A corrupt middle chunk in a cache entry is a miss: the entry
        is deleted and the next cached_trace call recaptures it."""
        from repro.trace import cache as trace_cache

        from repro.programs.suite import kernel

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "500")
        first = trace_cache.cached_trace("compress", 1_600)
        assert isinstance(first, ChunkedTrace)
        expected = list(first)
        entry = next(tmp_path.glob("*.vsrt4"))
        data = bytearray(entry.read_bytes())
        data[48 + 700] ^= 0xFF  # somewhere in a middle of the chunk data
        entry.write_bytes(bytes(data))
        again = trace_cache.cached_trace("compress", 1_600)
        assert list(again) == expected
        # The regenerated entry must itself be loadable and clean.
        reloaded = trace_cache.load_trace(
            "compress", kernel("compress").source, 1_600
        )
        assert reloaded is not None
        assert list(reloaded) == expected


class TestCacheIntegration:
    def test_short_capture_stays_v3(self, monkeypatch, tmp_path):
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "5000")
        trace = trace_cache.cached_trace("compress", 1_000)
        assert isinstance(trace, ColumnarTrace)
        assert list(tmp_path.glob("*.vsrt3"))
        assert not list(tmp_path.glob("*.vsrt4"))

    def test_long_capture_stores_v4(self, monkeypatch, tmp_path):
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "600")
        trace = trace_cache.cached_trace("compress", 2_000)
        assert isinstance(trace, ChunkedTrace)
        assert trace.chunk_count == 4
        assert not list(tmp_path.glob("*.vsrt3"))
        assert list(tmp_path.glob("*.vsrt4"))
        # No stray temp files from the streaming capture.
        assert not list(tmp_path.glob(".*tmp"))

    def test_chunking_disabled_stores_v3(self, monkeypatch, tmp_path):
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "off")
        trace = trace_cache.cached_trace("compress", 2_000)
        assert isinstance(trace, ColumnarTrace)
        assert list(tmp_path.glob("*.vsrt3"))

    def test_chunk_env_rejects_garbage(self, monkeypatch):
        from repro.trace import cache as trace_cache

        for value in ("many", "-5", "-1", "1.5"):
            monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, value)
            with pytest.raises(ValueError, match=f"REPRO_TRACE_CHUNK='{value}'"):
                trace_cache.chunk_records()
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "0")
        assert trace_cache.chunk_records() is None

    def test_cache_info_reports_chunk_breakdown(self, monkeypatch, tmp_path):
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "600")
        trace_cache.cached_trace("compress", 2_000)
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "5000")
        trace_cache.cached_trace("compress", 400)
        info = trace_cache.cache_info()
        assert info["entries"] == 2
        assert info["v3_entries"] == 1
        assert info["v4_entries"] == 1
        (geometry,) = info["chunked"].values()
        assert geometry["records"] == 2_000
        assert geometry["chunks"] == 4

    def test_warm_cache_without_materializing(self, monkeypatch, tmp_path):
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, "600")
        lengths = trace_cache.warm_cache(["compress"], 2_000)
        assert lengths == {"compress": 2_000}
        assert list(tmp_path.glob("*.vsrt4"))


class TestEngineConsumption:
    def test_engine_identical_on_chunked_trace(self, records):
        config = ProcessorConfig()
        exact = run_baseline(as_columnar(records), config)
        chunked = run_baseline(
            loads_trace_chunked(dumps_trace_chunked(records, 250)), config
        )
        assert exact.counters == chunked.counters


class TestScaleDeterminism:
    """Capture is a pure function of the workload at 10M+ records.

    The whole streaming plane exists for traces this size, so the
    determinism proof runs at that size: two independent streaming
    passes over the same 10M-record synthetic workload must produce
    byte-identical files (same per-chunk CRCs, same index), and a
    shorter pass must be a bit-exact prefix of the longer one.
    """

    @pytest.mark.slow
    def test_ten_million_record_capture_is_deterministic(self, tmp_path):
        from repro.trace.synthetic import iter_synthetic_trace

        config = SyntheticTraceConfig(length=10_000_000, seed=77)
        chunk = 1_000_000
        crcs = {}
        for name in ("a", "b"):
            path = tmp_path / f"{name}.vsrt4"
            with ChunkWriter(path, chunk) as writer:
                writer.extend(iter_synthetic_trace(config))
            assert writer.total == config.length
            trace = read_trace_chunked(path)
            assert trace.chunk_count == 10
            crcs[name] = trace.chunk_crcs()
            del trace
        assert crcs["a"] == crcs["b"]
        assert (tmp_path / "a.vsrt4").read_bytes() == (
            tmp_path / "b.vsrt4"
        ).read_bytes()

        # A 2M-record pass of the same workload is a bit-exact prefix.
        short = SyntheticTraceConfig(length=2_000_000, seed=77)
        with ChunkWriter(tmp_path / "p.vsrt4", chunk) as writer:
            writer.extend(iter_synthetic_trace(short))
        prefix = read_trace_chunked(tmp_path / "p.vsrt4")
        assert prefix.chunk_crcs() == crcs["a"][:2]
