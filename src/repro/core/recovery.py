"""Crash recovery: rebuild a store's DRAM state from its flash logs.

The SegTbl lives in SmartNIC DRAM and dies with a power failure; the
key and value logs are persistent.  Each bucket carries head/tail
snapshot fields "used for recovery" (§3.2.3): the key-log tail at the
moment the segment was appended.  Because the tail is monotonic, the
on-flash entry with the **highest tail snapshot** for a segment id is
that segment's latest version — so a single sequential scan of the
key-log region rebuilds the index without any other metadata.

Recovery steps:

1. scan every block of the key-log region, parsing bucket headers
   (position-0 buckets mark candidate segment entries);
2. keep, per segment id, the candidate with the largest tail
   snapshot whose full chain parses;
3. rebuild the SegTbl, and the store's decoded-segment memo, from
   the winners; restore the key log's head/tail around the live
   window; restore each value log tail from the largest value offset
   referenced by a live key item.

The scan costs one sequential read of the key-log region — seconds
for a real partition, exactly the "fast crash recovery" property
log-structured stores advertise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.circular_log import CircularLog
from repro.core.datastore import LeedDataStore
from repro.core.segment import BUCKET_HEADER, Bucket, Segment, value_entry_size


@dataclass
class RecoveryReport:
    """Outcome of one recovery scan."""

    blocks_scanned: int = 0
    segments_recovered: int = 0
    stale_versions_skipped: int = 0
    live_objects: int = 0
    key_log_head: int = 0
    key_log_tail: int = 0
    duration_us: float = 0.0


def recover_store(store: LeedDataStore):
    """Generator: rebuild ``store``'s SegTbl by scanning its key log.

    The store must be freshly constructed over the surviving SSD
    (empty SegTbl, zero log pointers).  Returns a
    :class:`RecoveryReport`.
    """
    sim = store.sim
    started = sim.now
    log = store.key_log
    block = log.block_size
    blocks_total = log.size // block
    report = RecoveryReport()

    # Candidate latest version per segment: seg_id -> (tail_snapshot,
    # physical block index, chain_len).
    candidates: Dict[int, Tuple[int, int, int]] = {}

    # Pass 1: sequential scan of the raw region (big reads amortize
    # the device latency, as a real recovery would).
    blocks: list = []
    chunk_blocks = max((64 * 1024) // block, 1)
    for start in range(0, blocks_total, chunk_blocks):
        count = min(chunk_blocks, blocks_total - start)
        data = yield from store.ssd.read(log.region_offset + start * block,
                                         count * block)
        for index in range(count):
            blocks.append(bytes(data[index * block:(index + 1) * block]))
    report.blocks_scanned = len(blocks)

    for block_index, blob in enumerate(blocks):
        parsed = _parse_bucket_header(blob)
        if parsed is None:
            continue
        seg_id, chain_len, position, tail_snapshot = parsed
        if position != 0 or not (0 < chain_len <= store.MAX_CHAIN):
            continue
        if seg_id >= store.config.num_segments:
            continue
        best = candidates.get(seg_id)
        if best is None or tail_snapshot > best[0]:
            if best is not None:
                report.stale_versions_skipped += 1
            candidates[seg_id] = (tail_snapshot, block_index, chain_len)
        else:
            report.stale_versions_skipped += 1

    # Pass 2: validate each winner's chain.
    max_voffsets: Dict[int, int] = {}
    winners = []
    for seg_id, (tail_snapshot, block_index, chain_len) in sorted(
            candidates.items()):
        chain = []
        valid = True
        for position in range(chain_len):
            blob = blocks[(block_index + position) % blocks_total]
            parsed = _parse_bucket_header(blob)
            if parsed is None or parsed[0] != seg_id or parsed[2] != position:
                valid = False
                break
            chain.append(blob)
        if not valid:
            report.stale_versions_skipped += 1
            continue
        segment = Segment.unpack(b"".join(chain), block)
        if not segment.live_items():
            continue
        winners.append((block_index, chain_len, seg_id, segment))
        report.segments_recovered += 1
        for item in segment.live_items():
            report.live_objects += 1
            end = item.voffset + value_entry_size(len(item.key), item.vlen)
            holder = item.ssd_id
            max_voffsets[holder] = max(max_voffsets.get(holder, 0), end)

    # Pass 3: rebuild the SegTbl and the log pointers, with virtual
    # offsets in one epoch (internally consistent is enough).  The
    # window covers every winning chain as one run: it starts at the
    # first live block, or, when a chain wraps the region's end, after
    # the widest run of dead blocks (earlier blocks count a lap later).
    winners.sort()
    head_block = winners[0][0] if winners else 0
    if winners and winners[-1][0] + winners[-1][1] > blocks_total:
        widest = -1
        for index, (start, chain_len, _, _) in enumerate(winners):
            following = winners[(index + 1) % len(winners)][0]
            gap = (following - start - chain_len) % blocks_total
            if gap > widest:
                widest, head_block = gap, following
    tail_block = head_block
    for block_index, chain_len, seg_id, segment in winners:
        if block_index < head_block:
            block_index += blocks_total
        store.segtbl.update(seg_id, block_index * block, chain_len)
        store._segments[block_index * block] = segment
        tail_block = max(tail_block, block_index + chain_len)
    log.head = head_block * block
    log.tail = tail_block * block
    report.key_log_head = log.head
    report.key_log_tail = log.tail
    store.live_objects = report.live_objects

    value_log = store.value_log
    value_log.head = 0
    value_log.tail = max_voffsets.get(store.store_id, 0)

    report.duration_us = sim.now - started
    return report


def _parse_bucket_header(blob: bytes) -> Optional[Tuple[int, int, int, int]]:
    """(seg_id, chain_len, position, tail) or None for garbage."""
    if len(blob) < BUCKET_HEADER.size:
        return None
    try:
        seg_id, chain_len, position, nkeys, _head, tail = \
            BUCKET_HEADER.unpack_from(blob, 0)
    except Exception:  # pragma: no cover - struct never raises here
        return None
    if chain_len == 0 and nkeys == 0 and tail == 0 and seg_id == 0:
        return None  # unwritten block
    # Sanity-parse the items; garbage blocks fail fast.
    try:
        Bucket.unpack(blob)
    except Exception:
        return None
    return seg_id, chain_len, position, tail
