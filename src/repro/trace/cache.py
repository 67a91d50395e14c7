"""Persistent, content-addressed on-disk trace cache.

Capturing a kernel trace means running the functional simulator for the
whole instruction budget — for the full-scale experiments that is minutes
of pure-Python interpretation per benchmark, repeated identically by
every sweep, figure, benchmark run and CI job.  The dynamic trace is a
pure function of (kernel source, instruction limit), so this module
memoises it on disk: entries are stored in the VSRT v3 columnar binary
format (:mod:`repro.trace.binary`) under a key derived from the benchmark
name, a hash of the kernel *source text*, and the limit.  v3 entries are
the on-disk image of a :class:`~repro.trace.columnar.ColumnarTrace`, so a
warm hit is served by ``mmap`` — zero parse cost, zero per-record
allocation, and concurrent sweep workers mapping the same entry share
one copy of the pages in the OS page cache.

Content addressing makes invalidation automatic: editing a kernel changes
its source hash, which changes the file name, so stale entries are simply
never found again (``repro cache clear`` removes them).  Format bumps are
handled the same way: the ``.vsrt3`` suffix changed with the layout, so a
v3 reader never even opens a leftover v2 entry.  The engine-side
representation (``TraceRecord``) never enters the key — row views are
rebuilt from the columns on demand, so engine changes cannot be masked
by a stale cache.

Configuration is via the ``REPRO_TRACE_CACHE`` environment variable:

* unset — cache under ``$XDG_CACHE_HOME/repro/traces`` (falling back to
  ``~/.cache/repro/traces``);
* a path — cache under that directory;
* ``off``, ``none``, ``0`` or empty — disable the cache entirely.

Writes are atomic (temp file + ``os.replace``) so concurrent sweep
workers can share one cache directory without coordination: the worst
case is two workers capturing the same trace and one harmlessly
overwriting the other's identical entry.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.trace.binary import (
    DEFAULT_CHUNK_RECORDS,
    BinaryTraceError,
    ChunkWriter,
    chunked_entry_info,
    dumps_trace_binary_v3,
    read_trace_binary_v3,
    read_trace_chunked,
)
from repro.trace.columnar import ChunkedTrace, ColumnarTrace, as_columnar

ENV_VAR = "REPRO_TRACE_CACHE"

#: Env var: records per chunk for streaming capture and VSRT v4 cache
#: entries.  Unset = the format default (1M records); a positive integer
#: overrides it; any falsy spelling ("0", "off", "none", ...) disables
#: chunked storage entirely (every capture materializes in memory and
#: stores v3, the pre-streaming behavior); anything else, a negative
#: count included, raises ``ValueError``.
CHUNK_ENV_VAR = "REPRO_TRACE_CHUNK"

#: ``REPRO_TRACE_CACHE`` values that turn the cache off.  Any common
#: falsy spelling disables the cache everywhere rather than being
#: misread as a relocation path named "false"/"no".
_DISABLED_VALUES = frozenset({"", "0", "off", "none", "disabled", "false", "no"})

#: File suffix; bump together with the binary format's magic so readers
#: of a new format never even open old-format files.
_SUFFIX = ".vsrt3"

#: Suffix for chunked (VSRT v4) entries — long traces only; short
#: captures keep the mmap-friendly single-block v3 layout.
_SUFFIX_V4 = ".vsrt4"

#: Hex digits of the kernel-source SHA-256 kept in the key.
_HASH_CHARS = 16


def chunk_records() -> int | None:
    """Records per chunk from ``REPRO_TRACE_CHUNK``; ``None`` when
    chunked storage is disabled."""
    raw = os.environ.get(CHUNK_ENV_VAR)
    if raw is None:
        return DEFAULT_CHUNK_RECORDS
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"{CHUNK_ENV_VAR}={raw!r} is not a chunk size (use a positive "
            "records-per-chunk count, or 0/off to disable chunked storage)"
        )
    return value


def cache_dir() -> Path | None:
    """The configured cache directory, or ``None`` when disabled.

    The directory is *not* created here — only writers create it, so
    read-only consumers (``repro cache info`` on a fresh machine) never
    touch the filesystem.
    """
    override = os.environ.get(ENV_VAR)
    if override is not None:
        if override.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


def cache_enabled() -> bool:
    return cache_dir() is not None


def source_hash(source: str) -> str:
    """Content hash of a kernel's source text (the invalidation key)."""
    return hashlib.sha256(source.encode()).hexdigest()[:_HASH_CHARS]


def trace_key(benchmark: str, source: str, max_instructions: int | None) -> str:
    """Content-addressed cache key: name, source hash, and limit."""
    limit = "full" if max_instructions is None else str(max_instructions)
    return f"{benchmark}-{source_hash(source)}-{limit}"


def trace_path(
    benchmark: str, source: str, max_instructions: int | None
) -> Path | None:
    """Where the entry for this key lives (``None`` when disabled)."""
    directory = cache_dir()
    if directory is None:
        return None
    return directory / (trace_key(benchmark, source, max_instructions) + _SUFFIX)


def trace_path_chunked(
    benchmark: str, source: str, max_instructions: int | None
) -> Path | None:
    """Where a *chunked* (v4) entry for this key lives."""
    directory = cache_dir()
    if directory is None:
        return None
    return directory / (
        trace_key(benchmark, source, max_instructions) + _SUFFIX_V4
    )


def load_trace(
    benchmark: str, source: str, max_instructions: int | None
) -> ColumnarTrace | ChunkedTrace | None:
    """Return the cached trace for this key, or ``None`` on a miss.

    v3 hits are mmap-backed :class:`ColumnarTrace` objects — the mapping
    stays open for the trace's lifetime.  v4 hits are
    :class:`ChunkedTrace` objects serving one chunk at a time; every
    chunk CRC is verified in one streaming pass at load, so a corrupt
    middle chunk is detected *here* (treated as a miss and deleted —
    the next capture regenerates it), never mid-simulation.
    """
    path = trace_path(benchmark, source, max_instructions)
    if path is not None and path.is_file():
        try:
            return read_trace_binary_v3(path)
        except OSError:
            return None
        except BinaryTraceError:
            try:
                path.unlink()
            except OSError:
                pass
    chunked = trace_path_chunked(benchmark, source, max_instructions)
    if chunked is None or not chunked.is_file():
        return None
    try:
        return read_trace_chunked(chunked, verify=True)
    except OSError:
        return None
    except BinaryTraceError:
        try:
            chunked.unlink()
        except OSError:
            pass
        return None


def store_trace(
    benchmark: str,
    source: str,
    max_instructions: int | None,
    records,
) -> Path | None:
    """Atomically write ``records`` under this key; returns the path.

    Returns ``None`` (and stores nothing) when the cache is disabled or
    the directory is unwritable — caching is an optimisation, never a
    hard dependency.
    """
    path = trace_path(benchmark, source, max_instructions)
    if path is None:
        return None
    data = dumps_trace_binary_v3(records)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return None
    return path


def cached_trace(
    benchmark: str, max_instructions: int | None = None
) -> ColumnarTrace | ChunkedTrace:
    """The dynamic trace for ``benchmark``, from disk when possible.

    This is the high-level entry the harness and CLI use in place of
    ``kernel(name).trace(limit)``: a hit skips the functional simulator
    entirely; a miss captures the trace and populates the cache for the
    next caller.

    Capture *streams*: with the cache writable and chunked storage on
    (``REPRO_TRACE_CHUNK``, default 1M records per chunk), records flow
    from the functional simulator straight into a chunk writer, so peak
    memory is O(chunk) regardless of trace length.  Captures no longer
    than one chunk are converted to the mmap-friendly v3 layout; longer
    captures keep the chunked v4 layout and are served as
    :class:`ChunkedTrace`.
    """
    from repro.programs.suite import kernel

    spec = kernel(benchmark)
    cached = load_trace(benchmark, spec.source, max_instructions)
    if cached is not None:
        return cached
    chunk = chunk_records()
    directory = cache_dir()
    if chunk is not None and directory is not None:
        streamed = _capture_streaming(
            benchmark, spec, max_instructions, chunk, directory
        )
        if streamed is not None:
            return streamed
    trace = as_columnar(spec.trace(max_instructions))
    store_trace(benchmark, spec.source, max_instructions, trace)
    return trace


def _capture_streaming(
    benchmark: str,
    spec,
    max_instructions: int | None,
    chunk: int,
    directory: Path,
) -> ColumnarTrace | ChunkedTrace | None:
    """Capture ``spec``'s trace with bounded memory, storing v4 (long
    captures) or v3 (captures that fit one chunk).  Returns ``None`` on
    any filesystem failure so the caller can fall back to the in-memory
    path — caching is an optimisation, never a hard dependency.
    """
    path = trace_path_chunked(benchmark, spec.source, max_instructions)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with ChunkWriter(tmp, chunk) as writer:
            writer.extend(spec.iter_trace(max_instructions))
        if writer.total <= chunk:
            # Single-chunk capture: keep the zero-parse v3 layout.
            trace = read_trace_chunked(tmp)
            columnar = (
                trace.chunk(0) if trace.chunk_count else as_columnar([])
            )
            # Return the heap-backed decoded chunk, not a re-loaded mmap
            # of the entry just stored: a miss must hand back a trace
            # that stays valid even if the cache file is later deleted
            # or overwritten (warm hits get the zero-parse mmap path).
            store_trace(benchmark, spec.source, max_instructions, columnar)
            tmp.unlink()
            return columnar
        os.replace(tmp, path)
        return read_trace_chunked(path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return None


# -- maintenance (the `repro cache` subcommand) ---------------------------


def cache_entries() -> list[Path]:
    """Every entry file (v3 and v4) currently in the cache directory."""
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return []
    return sorted(
        list(directory.glob(f"*{_SUFFIX}"))
        + list(directory.glob(f"*{_SUFFIX_V4}"))
    )


def cache_info() -> dict:
    """Summary of the cache's location and contents.

    v4 (chunked) entries additionally report their chunk geometry —
    chunk count and per-chunk payload sizes — read from the entry index
    alone, without loading any chunk data.
    """
    directory = cache_dir()
    entries = cache_entries()
    v3 = [path for path in entries if path.suffix == _SUFFIX]
    v4 = [path for path in entries if path.suffix == _SUFFIX_V4]
    chunked: dict[str, dict] = {}
    for path in v4:
        try:
            chunked[path.name] = chunked_entry_info(path)
        except (OSError, BinaryTraceError):
            chunked[path.name] = {"error": "unreadable"}
    return {
        "enabled": directory is not None,
        "dir": str(directory) if directory is not None else None,
        "entries": len(entries),
        "bytes": sum(path.stat().st_size for path in entries),
        "files": [path.name for path in entries],
        "v3_entries": len(v3),
        "v4_entries": len(v4),
        "chunked": chunked,
    }


def clear_cache() -> int:
    """Delete every cache entry; returns the number removed."""
    removed = 0
    for path in cache_entries():
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def warm_cache(
    benchmarks: list[str], max_instructions: int | None = None
) -> dict[str, int]:
    """Capture-and-store each benchmark's trace; returns name -> length."""
    return {
        name: len(cached_trace(name, max_instructions)) for name in benchmarks
    }
