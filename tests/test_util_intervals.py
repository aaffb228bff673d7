"""Unit tests for interval math (gap search is the substrate's hot core)."""

import pytest

from repro.util.intervals import (
    HOTPATH_MODES,
    Interval,
    Timeline,
    earliest_gap,
    hotpath_mode,
    intervals_overlap,
    reference_mode,
    set_hotpath_mode,
)


class TestInterval:
    def test_duration(self):
        assert Interval(2.0, 5.0).duration == 3.0

    def test_zero_duration_allowed(self):
        assert Interval(2.0, 2.0).duration == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)

    def test_overlap_detection(self):
        a = Interval(0.0, 10.0)
        assert a.overlaps(Interval(5.0, 15.0))
        assert not a.overlaps(Interval(10.0, 20.0))  # half-open: touching is fine
        assert not a.overlaps(Interval(20.0, 30.0))

    def test_payload_carried(self):
        assert Interval(0, 1, payload="task").payload == "task"


class TestIntervalsOverlap:
    def test_disjoint(self):
        assert not intervals_overlap(0, 1, 2, 3)

    def test_touching_not_overlap(self):
        assert not intervals_overlap(0, 5, 5, 9)

    def test_nested(self):
        assert intervals_overlap(0, 10, 3, 4)

    def test_identical(self):
        assert intervals_overlap(3, 7, 3, 7)


class TestEarliestGap:
    def test_empty_timeline(self):
        assert earliest_gap([], ready=3.0, duration=5.0) == 3.0

    def test_fits_before_first(self):
        busy = [Interval(10, 20)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 0.0

    def test_does_not_fit_before_first(self):
        busy = [Interval(3, 20)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 20.0

    def test_fits_between(self):
        busy = [Interval(0, 10), Interval(25, 30)]
        assert earliest_gap(busy, ready=0.0, duration=10.0) == 10.0

    def test_gap_too_small_skipped(self):
        busy = [Interval(0, 10), Interval(12, 30)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 30.0

    def test_ready_inside_busy(self):
        busy = [Interval(0, 10)]
        assert earliest_gap(busy, ready=5.0, duration=2.0) == 10.0

    def test_ready_inside_gap(self):
        busy = [Interval(0, 10), Interval(20, 30)]
        assert earliest_gap(busy, ready=12.0, duration=5.0) == 12.0

    def test_ready_inside_gap_but_too_late(self):
        busy = [Interval(0, 10), Interval(20, 30)]
        assert earliest_gap(busy, ready=17.0, duration=5.0) == 30.0

    def test_zero_duration_at_ready(self):
        busy = [Interval(0, 10)]
        assert earliest_gap(busy, ready=5.0, duration=0.0) == 5.0

    def test_negative_ready_clamped(self):
        assert earliest_gap([], ready=-5.0, duration=1.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            earliest_gap([], ready=0.0, duration=-1.0)

    def test_exact_fit(self):
        busy = [Interval(0, 10), Interval(15, 20)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 10.0


def _random_busy(rng, n):
    """A start-sorted, legally non-overlapping timeline; occasionally a
    zero-duration reservation *inside* an earlier interval's span (legal:
    sub-EPS overlap) so finish times are non-monotonic — the worst case
    for the indexed bisect."""
    busy = []
    t = 0.0
    for _ in range(n):
        t += rng.random() * 3
        dur = 0.0 if rng.random() < 0.15 else rng.random() * 4
        busy.append(Interval(t, t + dur))
        t += dur
    if busy and len(busy) > 2:
        # zero-width straggler whose finish precedes the previous finish
        host = busy[len(busy) // 2]
        if host.duration > 1.0:
            z = Interval(host.finish, host.finish)
            busy.insert(len(busy) // 2 + 1, z)
    busy.sort(key=lambda iv: iv.start)
    return busy


class TestTimeline:
    """The indexed structure must agree with the legacy scan bit-for-bit."""

    def test_matches_legacy_randomized(self):
        import random
        rng = random.Random(42)
        for trial in range(200):
            busy = _random_busy(rng, rng.randrange(0, 12))
            tl = Timeline.from_items(busy)
            ready = rng.random() * 30 - 2
            duration = 0.0 if rng.random() < 0.1 else rng.random() * 5
            assert tl.earliest_gap(ready, duration) == earliest_gap(
                busy, ready, duration
            ), (trial, [(iv.start, iv.finish) for iv in busy], ready, duration)

    def test_merged_matches_legacy_sorted_merge(self):
        import random
        rng = random.Random(7)
        for trial in range(200):
            busy = _random_busy(rng, rng.randrange(0, 10))
            extras = _random_busy(rng, rng.randrange(0, 4))
            tl = Timeline.from_items(busy)
            merged = sorted(busy + extras, key=lambda iv: iv.start)
            ready = rng.random() * 25
            duration = rng.random() * 5
            got = tl.earliest_gap_merged(
                ready, duration,
                [iv.start for iv in extras], [iv.finish for iv in extras],
            )
            assert got == earliest_gap(merged, ready, duration), (
                trial, ready, duration
            )

    def test_last_finish_and_len(self):
        tl = Timeline.from_items([Interval(0, 5), Interval(7, 9)])
        assert len(tl) == 2
        assert tl.last_finish() == 9
        assert Timeline().last_finish() == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().earliest_gap(0.0, -1.0)


def _lists(tl):
    return tl.starts, tl.finishes, tl._maxf


#: a timeline whose running maximum is held by a long reservation with
#: zero-duration entries inside its span (finishes 2 and 3 < 10)
_SPANNED = [(0.0, 1.0), (1.0, 10.0), (2.0, 2.0), (3.0, 3.0), (10.0, 12.0)]


class TestTimelineEdits:
    """In-place edits (rewrites followed by their refresh) leave starts,
    finishes and the running maximum exactly as
    :meth:`Timeline.from_items` builds them over the edited
    reservations."""

    @staticmethod
    def _check(tl, items):
        fresh = Timeline.from_items([Interval(s, f) for s, f in items])
        assert _lists(tl) == _lists(fresh)

    @pytest.mark.parametrize("where", ["head", "middle", "tail"])
    @pytest.mark.parametrize("entry", [(0.0, 0.0), (2.5, 2.5), (5.0, 20.0)],
                             ids=["zero-at-0", "zero-inside", "new-max"])
    def test_insert(self, where, entry):
        items = list(_SPANNED)
        i = {"head": 0, "middle": 2, "tail": len(items)}[where]
        tl = Timeline.from_items([Interval(s, f) for s, f in items])
        tl.insert(i, *entry)
        items.insert(i, entry)
        self._check(tl, items)

    @pytest.mark.parametrize("i", [0, 1, 2, 4], ids=["head", "max-holder",
                                                   "middle", "tail"])
    def test_delete(self, i):
        items = list(_SPANNED)
        tl = Timeline.from_items([Interval(s, f) for s, f in items])
        tl.delete(i)
        del items[i]
        self._check(tl, items)

    def test_delete_max_holder_lowers_the_running_maximum(self):
        tl = Timeline.from_items([Interval(s, f) for s, f in _SPANNED])
        assert tl._maxf == [1.0, 10.0, 10.0, 10.0, 12.0]
        tl.delete(1)
        assert tl._maxf == [1.0, 2.0, 3.0, 12.0]

    @pytest.mark.parametrize("where", ["head", "middle", "tail"])
    @pytest.mark.parametrize("shift", [-0.5, 0.0, 4.0],
                             ids=["earlier", "same", "later"])
    def test_rewrite(self, where, shift):
        items = list(_SPANNED)
        i = {"head": 0, "middle": 1, "tail": len(items) - 1}[where]
        s, f = items[i]
        entry = (max(s + shift, 0.0), max(f + shift, 0.0))
        tl = Timeline.from_items([Interval(a, b) for a, b in items])
        tl.rewrite(i, *entry)
        tl.refresh_maxf(i, i)
        items[i] = entry
        self._check(tl, items)

    def test_rewrite_batch_then_one_refresh(self):
        """A settle rewrites several entries, then refreshes the span."""
        items = list(_SPANNED)
        tl = Timeline.from_items([Interval(s, f) for s, f in items])
        for i, entry in [(3, (3.0, 3.5)), (1, (1.0, 2.0)), (2, (2.0, 2.0))]:
            tl.rewrite(i, *entry)
            items[i] = entry
        tl.refresh_maxf(1, 3)
        self._check(tl, items)
        assert tl._maxf == [1.0, 2.0, 2.0, 3.5, 12.0]

    def test_empty_and_single(self):
        tl = Timeline()
        tl.insert(0, 1.0, 2.0)
        self._check(tl, [(1.0, 2.0)])
        tl.rewrite(0, 0.0, 0.0)
        tl.refresh_maxf(0, 0)
        self._check(tl, [(0.0, 0.0)])
        tl.delete(0)
        self._check(tl, [])

    def test_randomized_edit_sequences(self):
        """Long random runs of inserts, deletes and rewrites, with
        zero-duration entries so finishes are often non-monotone."""
        import random
        rng = random.Random(17)
        for trial in range(60):
            items = [(iv.start, iv.finish)
                     for iv in _random_busy(rng, rng.randrange(0, 10))]
            tl = Timeline.from_items([Interval(s, f) for s, f in items])
            for _ in range(40):
                op = rng.random()
                if op < 0.4 or not items:
                    s = rng.random() * 30
                    entry = (s, s if rng.random() < 0.3 else s + rng.random() * 8)
                    i = rng.randrange(len(items) + 1)
                    tl.insert(i, *entry)
                    items.insert(i, entry)
                elif op < 0.7:
                    i = rng.randrange(len(items))
                    tl.delete(i)
                    del items[i]
                else:
                    # a batch of rewrites, then one refresh of their span
                    written = rng.sample(range(len(items)),
                                         rng.randint(1, min(3, len(items))))
                    for i in written:
                        s = rng.random() * 30
                        entry = (s, s + rng.random() * 8)
                        tl.rewrite(i, *entry)
                        items[i] = entry
                    tl.refresh_maxf(min(written), max(written))
                self._check(tl, items)


class TestHotpathMode:
    def test_mode_round_trip(self):
        assert hotpath_mode() in HOTPATH_MODES
        prev = set_hotpath_mode("legacy")
        try:
            assert reference_mode()
        finally:
            set_hotpath_mode(prev)
        assert hotpath_mode() == prev

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            set_hotpath_mode("turbo")

    def test_only_legacy_is_the_reference(self):
        assert HOTPATH_MODES == ("incremental", "legacy")
        prev = hotpath_mode()
        try:
            set_hotpath_mode("incremental")
            assert not reference_mode()
            set_hotpath_mode("legacy")
            assert reference_mode()
        finally:
            set_hotpath_mode(prev)

    @pytest.mark.parametrize("value", ["array", "fast", "legcy"])
    def test_unknown_env_mode_refused_at_import(self, value):
        """A retired engine name or a typo in ``REPRO_HOTPATH`` must stop
        the import with a ConfigurationError naming the valid modes —
        never silently run the production engine under a leg that claims
        to test another one. A child process imports repro fresh."""
        import os
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent("""
            try:
                import repro.util.intervals  # noqa: F401
            except Exception as exc:
                assert type(exc).__name__ == "ConfigurationError", exc
                assert "'incremental', 'legacy'" in str(exc), exc
                print("REFUSED")
            else:
                raise SystemExit("unknown REPRO_HOTPATH value accepted")
        """)
        env = {**os.environ, "PYTHONPATH": "src", "REPRO_HOTPATH": value}
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert done.returncode == 0, done.stderr
        assert "REFUSED" in done.stdout
