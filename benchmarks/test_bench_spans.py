"""Span-tracking overhead gate: enabled must stay bounded.

The disabled path does no per-event work; tier-1 proves that
structurally (``tests/obs/test_spans.py``).  Enabled, the tracker hooks
every trace event but, with no trace retained and no other hook,
attributes only the roots that can still become exemplars; tier-1's
``test_spans_only_soak_pays_for_what_it_keeps`` pins that
deterministically (no retained events, under 1% of roots attributed).
This wall gate backs it: both arms are timed by
:mod:`benchmarks.overhead` (spans on measured ~1.2x off on a 2-vCPU
host), and the enabled arm must leave the simulated world untouched:
identical event counts, identical probe samples.
"""

from benchmarks.overhead import interleaved_best, soak

_MAX_ON_FACTOR = 2.0


def test_bench_span_overhead(benchmark):
    (summary_off, events_off), (summary_on, events_on), best_off, best_on = \
        benchmark.pedantic(
            interleaved_best,
            args=(lambda: soak("bench-spans", spans=False),
                  lambda: soak("bench-spans", spans=True)),
            rounds=1, iterations=1)

    # Spans only read state and record events: the simulated world is
    # byte-identical, so the engine processes the exact same events.
    assert events_on == events_off
    assert summary_on["dp_sample_count"] == summary_off["dp_sample_count"]
    assert summary_on["spans"]["completed"] > 0

    off_rate = events_off / best_off
    on_rate = events_off / best_on
    factor = best_on / best_off
    benchmark.extra_info["events_processed"] = events_off
    benchmark.extra_info["events_per_second_off"] = round(off_rate)
    benchmark.extra_info["events_per_second_on"] = round(on_rate)
    benchmark.extra_info["enabled_factor"] = round(factor, 2)
    print(f"\nspan overhead: off {off_rate / 1e3:.0f}k ev/s, "
          f"on {on_rate / 1e3:.0f}k ev/s ({factor:.2f}x when enabled)")
    assert factor <= _MAX_ON_FACTOR, (
        f"span tracking costs {factor:.2f}x soak wall time "
        f"(gate: {_MAX_ON_FACTOR:.1f}x)")
