"""Detection metrics and run-report summarization."""

import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from lockon.metrics import (
    REASON_CONTAINMENT,
    REASON_NEVER_DETECTED,
    REASON_TIMEOUT,
    ConfusionCounts,
    MetricsError,
    confusion_metrics,
    parse_jsonl,
    summarize_run,
)
from lockon.runner import event_log_to_jsonl, run
from lockon.scenario import load_scenario

from conftest import json_values


class TestConfusionMetrics:
    def test_reference_counts(self):
        # 150/159, 150/164 and 300/323 at four decimals.
        result = confusion_metrics(ConfusionCounts(tp=150, fp=9, fn=14))
        assert result.precision == pytest.approx(150 / 159)
        assert result.recall == pytest.approx(150 / 164)
        assert result.f1 == pytest.approx(300 / 323)
        rounded = result.as_dict()
        assert rounded == {"precision": 0.9434, "recall": 0.9146, "f1": 0.9288}
        assert (round(result.precision, 2), round(result.recall, 2), round(result.f1, 2)) == (
            0.94,
            0.91,
            0.93,
        )

    def test_perfect_classifier(self):
        result = confusion_metrics(ConfusionCounts(10, 0, 0))
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)

    def test_all_zero_is_undefined(self):
        with pytest.raises(MetricsError):
            confusion_metrics(ConfusionCounts(0, 0, 0))

    def test_zero_tp_with_mistakes_is_all_zero(self):
        result = confusion_metrics(ConfusionCounts(0, 3, 4))
        assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)

    def test_precision_one_when_no_false_positives(self):
        for tp in (1, 7, 150):
            assert confusion_metrics(ConfusionCounts(tp, 0, 5)).precision == 1.0
            assert confusion_metrics(ConfusionCounts(tp, 5, 0)).recall == 1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0)

    def test_f1_equals_harmonic_mean(self):
        import random

        rng = random.Random(11)
        for _ in range(300):
            counts = ConfusionCounts(rng.randint(1, 500), rng.randint(0, 100), rng.randint(0, 100))
            m = confusion_metrics(counts)
            harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert abs(m.f1 - harmonic) < 1e-12


def meta(dt=0.05, frame_period=0.1):
    return {
        "kind": "meta", "scenario": "synthetic", "seed": 0, "dt": dt,
        "frame_period": frame_period, "max_time": 60.0, "lock_duration": 10.0,
        "activation_radius": 10.0,
    }


def msg(tick, topic, payload=None, publisher="n", seq=0):
    return {"kind": "msg", "tick": tick, "topic": topic, "publisher": publisher,
            "seq": seq, "payload": payload}


def assignment(tick, target_id, remaining=1):
    return msg(
        tick, "/telemetry/response",
        {"has_target": True, "target_id": target_id,
         "target_position": {"x": 60, "y": 0, "z": 10}, "remaining_targets": remaining},
    )


def end(terminated_by, tick):
    return {"kind": "end", "terminated_by": terminated_by, "tick": tick}


class TestSummarizeRun:
    def test_locked_target(self):
        offsets = [msg(t, "/image/message", {"x": 0, "y": 0, "tick": t}) for t in range(130, 332, 2)]
        entries = [
            meta(),
            assignment(2, "T1"),
            msg(128, "/signal/process_image"),
            *offsets,
            msg(330, "/lock", {"uav_id": "u", "target_id": "T1",
                               "lock_start_tick": 130, "lock_end_tick": 330,
                               "position": {"x": 0, "y": 0, "z": 0}}),
            msg(330, "/land"),
            end("land", 332),
        ]
        report = summarize_run(entries)
        outcome = report.per_target[0]
        assert outcome.locked
        assert outcome.time_to_lock == pytest.approx((330 - 128) * 0.05)
        assert outcome.time_to_lock >= 10.0
        assert outcome.max_containment_s == pytest.approx(10.0)
        assert report.terminated_by == "land"

    def test_a_repeated_lock_keeps_the_first_lock_time(self):
        # A retried /lock post logs the same target again, later.
        offsets = [msg(t, "/image/message", {"x": 0, "y": 0, "tick": t}) for t in range(130, 332, 2)]
        lock = {"uav_id": "u", "target_id": "T1", "lock_start_tick": 130, "lock_end_tick": 330,
                "position": {"x": 0, "y": 0, "z": 0}}
        entries = [
            meta(),
            assignment(2, "T1"),
            msg(128, "/signal/process_image"),
            *offsets,
            msg(330, "/lock", lock),
            msg(730, "/lock", lock),
            msg(730, "/land"),
            end("land", 732),
        ]
        outcome = summarize_run(entries).per_target[0]
        assert outcome.locked
        assert outcome.time_to_lock == pytest.approx((330 - 128) * 0.05)
        assert outcome.locks == (330, 730)

    def test_every_lock_needs_a_target_id(self):
        entries = [meta(), assignment(2, "T1"), msg(128, "/signal/process_image"),
                   msg(330, "/lock", {"target_id": "T1"}), msg(340, "/lock", {}),
                   end("land", 342)]
        with pytest.raises(MetricsError, match="/lock message without a target_id"):
            summarize_run(entries)

    def test_containment_never_reached(self):
        offsets = [msg(t, "/image/message", {"x": 0, "y": 0, "tick": t}) for t in range(130, 160, 2)]
        entries = [meta(), assignment(2, "T1"), msg(128, "/signal/process_image"),
                   *offsets, end("timeout", 1200)]
        outcome = summarize_run(entries).per_target[0]
        assert not outcome.locked
        assert outcome.reason == REASON_CONTAINMENT
        assert outcome.max_containment_s == pytest.approx(28 * 0.05)

    def test_never_detected(self):
        entries = [meta(), assignment(2, "T1"), msg(128, "/signal/process_image"),
                   end("timeout", 1200)]
        outcome = summarize_run(entries).per_target[0]
        assert outcome.reason == REASON_NEVER_DETECTED

    def test_no_signal_is_mission_timeout(self):
        entries = [meta(), assignment(2, "T1"), end("timeout", 1200)]
        outcome = summarize_run(entries).per_target[0]
        assert outcome.reason == REASON_TIMEOUT

    def test_gap_splits_containment_streaks(self):
        early = [msg(t, "/image/message", {"x": 0, "y": 0, "tick": t}) for t in range(100, 120, 2)]
        late = [msg(t, "/image/message", {"x": 0, "y": 0, "tick": t}) for t in range(200, 260, 2)]
        entries = [meta(), assignment(2, "T1"), msg(90, "/signal/process_image"),
                   *early, *late, end("timeout", 1200)]
        outcome = summarize_run(entries).per_target[0]
        assert outcome.max_containment_s == pytest.approx(58 * 0.05)

    def test_empty_target_mission(self):
        entries = [meta(), msg(2, "/land"), end("land", 4)]
        report = summarize_run(entries)
        assert report.per_target == ()
        assert report.topic_counts["/land"] == 1

    def test_truncated_log_rejected(self):
        with pytest.raises(MetricsError):
            summarize_run([meta(), assignment(2, "T1")])

    def test_missing_meta_rejected(self):
        with pytest.raises(MetricsError):
            summarize_run([assignment(2, "T1"), end("land", 10)])
        with pytest.raises(MetricsError, match="no meta header"):  # the log must open with it
            summarize_run([assignment(2, "T1"), meta(), end("land", 10)])

    def test_pure_function_of_log(self):
        entries = [meta(), assignment(2, "T1"), msg(128, "/signal/process_image"),
                   end("timeout", 1200)]
        assert summarize_run(entries) == summarize_run(list(entries))

    def test_two_target_pairing(self):
        first_offsets = [
            msg(t, "/image/message", {"x": 0, "y": 0, "tick": t}) for t in range(100, 302, 2)
        ]
        entries = [
            meta(),
            assignment(2, "T1", remaining=2),
            msg(90, "/signal/process_image"),
            *first_offsets,
            msg(300, "/lock", {"uav_id": "u", "target_id": "T1",
                               "lock_start_tick": 100, "lock_end_tick": 300,
                               "position": {"x": 0, "y": 0, "z": 0}}),
            assignment(302, "T2", remaining=1),
            msg(400, "/signal/process_image"),
            end("timeout", 1200),
        ]
        report = summarize_run(entries)
        assert [t.target_id for t in report.per_target] == ["T1", "T2"]
        assert report.per_target[0].locked
        assert not report.per_target[1].locked
        assert report.per_target[1].reason == REASON_NEVER_DETECTED

    def test_messages_count_toward_the_target_assigned_last_before_them_in_the_log(self):
        offset = msg(45, "/image/message", {"x": 0, "y": 0, "tick": 45})
        entries = [
            meta(),
            msg(1, "/signal/process_image"),  # before any assignment: ignored
            assignment(2, "T1", remaining=2),
            assignment(50, "T2", remaining=1),
            msg(40, "/signal/process_image"),  # an earlier tick, but logged after T2's assignment
            offset,
            assignment(60, "T1"),  # a repeated assignment does not switch back to T1
            end("timeout", 1200),
        ]
        first, second = summarize_run(entries).per_target
        assert (first.target_id, first.reason) == ("T1", REASON_TIMEOUT)
        assert (second.target_id, second.reason) == ("T2", REASON_CONTAINMENT)


# --- Timelines ----------------------------------------------------------------

class TestTimeline:
    def test_hovering_target_holds_one_streak_and_times_out(self):
        report = run(load_scenario("hovering_target")).report
        (outcome,) = report.per_target
        assert (outcome.assigned, outcome.signal) == (1, 128)
        assert outcome.streaks == ((132, 158),)
        assert outcome.locks == () and outcome.reason == REASON_CONTAINMENT
        assert report.transitions == (
            (0, "BOOT", "SEARCH"), (133, "SEARCH", "LOCK"), (169, "LOCK", "SEARCH"),
        )
        assert (report.end_tick, report.terminated_by) == (1200, "timeout")

    def test_moving_target_locks_at_the_end_of_its_streak(self):
        (outcome,) = summarize_run(real_log()).per_target
        assert outcome.streaks == ((132, 332),)
        assert outcome.locks == (332,)
        assert outcome.time_to_lock == pytest.approx(10.20)

    def test_each_report_of_the_property_batch_matches_its_own_log(self, property_batch):
        split = 0
        for result, _ in property_batch:
            log, report = result.event_log, result.report
            assert report.transitions == tuple(
                (e["tick"], e["from"], e["to"]) for e in log if e["kind"] == "fsm"
            )
            assert report.end_tick == log[-1]["tick"]
            frame_ticks = result.scenario.frame_period / result.scenario.dt
            for outcome in report.per_target:
                assert outcome.locks == tuple(
                    e["tick"] for e in log
                    if e.get("topic") == "/lock" and e["payload"]["target_id"] == outcome.target_id
                )
                ticks = [tick for streak in outcome.streaks for tick in streak]
                assert ticks == sorted(ticks)
                for (_, last), (first, _) in zip(outcome.streaks, outcome.streaks[1:]):
                    assert first - last > frame_ticks
                split += len(outcome.streaks) > 1
        assert split >= 10  # enough runs with a skipped frame to test the gaps


# --- Mutated real logs --------------------------------------------------------

@functools.cache
def real_log() -> tuple[dict, ...]:
    """moving_target's event log as read back from its JSONL text."""
    return tuple(parse_jsonl(event_log_to_jsonl(run(load_scenario("moving_target")).event_log)))


@st.composite
def mutated_logs(draw):
    """A real log with one entry replaced, or one of its (payload) fields set or deleted."""
    entries = list(real_log())
    first_of_each = sorted({(e["kind"], e.get("topic") or ""): i
                            for i, e in reversed(list(enumerate(entries)))}.values())
    index = draw(st.sampled_from(first_of_each) | st.integers(0, len(entries) - 1))
    entry = dict(entries[index])
    target = entry
    if type(entry.get("payload")) is dict and draw(st.booleans()):
        target = entry["payload"] = dict(entry["payload"])
    key = draw(st.sampled_from(sorted(target) + ["extra"]))
    action = draw(st.sampled_from(["set", "delete", "replace entry"]))
    if action == "set":
        target[key] = draw(json_values)
    elif action == "delete":
        target.pop(key, None)
    else:
        entry = draw(json_values)
    entries[index] = entry
    return entries


class TestMalformedLogs:
    @settings(max_examples=300, deadline=None)
    @given(mutated_logs())
    def test_one_mutated_field_gives_a_report_or_metrics_error(self, entries):
        try:
            report = summarize_run(entries)
        except MetricsError:
            return
        json.dumps(report.as_dict())

    def test_a_dt_whose_tick_spans_overflow_is_a_metrics_error(self):
        # Was a report with max_containment_s Infinity, which json.dumps writes as a bare token.
        offsets = [msg(t, "/image/message", {"x": 0, "y": 0, "tick": t}) for t in (3, 4, 5)]
        entries = [meta(dt=1e308, frame_period=1e308), assignment(1, "T1"),
                   msg(2, "/signal/process_image"), *offsets, end("timeout", 6)]
        with pytest.raises(MetricsError, match="overflow"):
            summarize_run(entries)

    @pytest.mark.parametrize(
        "topic, field, value",
        [
            ("meta", "dt", 0),
            ("meta", "dt", "0.05"),
            ("meta", "frame_period", 1e308),
            ("end", "terminated_by", None),
            ("/telemetry", "topic", None),
            ("/telemetry", "tick", 2**60),
            ("/telemetry", "payload", [1]),
            ("/telemetry", None, [1]),
            ("/telemetry/response", "payload.target_id", ["T1"]),
            ("/lock", "payload.target_id", None),
            ("/image/message", "payload.tick", 1.5),
            ("fsm", "tick", 1.5),
            ("fsm", "from", None),
            ("end", "tick", "x"),
        ],
    )
    def test_each_observed_crash_is_a_metrics_error(self, topic, field, value):
        """Each raised KeyError, AttributeError, TypeError or ZeroDivisionError, or
        (a string dt, a lock without a target, a fractional tick, an fsm or end
        entry without its tick or states) was taken as is."""
        entries = list(real_log())
        index = next(i for i, e in enumerate(entries) if topic in (e["kind"], e.get("topic")))
        entry = entries[index] = dict(entries[index])
        if field is None:
            entries[index] = value
        else:
            if field.startswith("payload."):
                entry["payload"] = dict(entry["payload"])
                entry, field = entry["payload"], field[len("payload."):]
            entry[field] = value
            if value is None:
                del entry[field]
        with pytest.raises(MetricsError):
            summarize_run(entries)
