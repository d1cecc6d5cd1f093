"""The benchmark's arithmetic: failure fractions, latency summaries and the
failover outage.

Standard library only; nothing here imports ``repro``, so no number the
benchmark reports is normalized by the code it measures.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Successful reads and successful writes every run must complete, so the
#: 99th percentile keeps at least ten samples beyond it.
MIN_SAMPLES = 1000

#: The tail percentile reported for simulated latency.
TAIL_PERCENTILE = 99.0


def failed_frac(failed: int, attempted: int) -> float:
    """Failed client operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError(f"no operations attempted (failed={failed})")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def samples_beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile`` of ``count``
    samples (the rule :class:`repro.netsim.stats.LatencyRecorder` uses)."""
    rank = max(1, -(-int(round(percentile * count)) // 100))
    return count - rank


def latency_summary(recorder) -> dict:
    """Mean, p50 and p99 in microseconds of a latency recorder (any object
    with ``count()``, ``mean()`` and ``percentile(p)`` in seconds).

    Raises :class:`ValueError` when fewer than :data:`MIN_SAMPLES` samples
    leave the tail percentile without ten samples beyond it.
    """
    count = recorder.count()
    if count < MIN_SAMPLES or samples_beyond(count, TAIL_PERCENTILE) < 10:
        raise ValueError(
            f"{count} latency samples: need at least {MIN_SAMPLES} so the "
            f"p{TAIL_PERCENTILE:g} keeps ten samples beyond it")
    return {"count": count,
            "mean_us": recorder.mean() * 1e6,
            "p50_us": recorder.percentile(50.0) * 1e6,
            "p99_us": recorder.percentile(TAIL_PERCENTILE) * 1e6}


def outage_ms(ops: Iterable, failed_at: float,
              affected_keys: Iterable[bytes]) -> Optional[float]:
    """Simulated milliseconds from an injected failure to the first
    successful write on a key whose chain held the failed switch.

    Only writes invoked at or after ``failed_at`` count.  ``ops`` are
    history operations (``op``, ``key``, ``ok``, ``invoked_at``,
    ``returned_at``).  ``None`` when no such write completed.
    """
    keys = set(affected_keys)
    first: Optional[float] = None
    for op in ops:
        if (op.op == "write" and op.ok and op.invoked_at >= failed_at
                and op.key in keys and op.returned_at is not None
                and (first is None or op.returned_at < first)):
            first = op.returned_at
    if first is None:
        return None
    return (first - failed_at) * 1e3
