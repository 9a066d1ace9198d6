//! Serialization sinks: JSONL event streams and Chrome `trace_event`
//! JSON.
//!
//! Both sinks take the event list already ordered by `(rank, seq)` (as
//! [`crate::CollectingRecorder::take`] returns it) and produce output
//! whose bytes depend only on that list — no timestamps of their own,
//! no map iteration with unstable order — so simulated-engine traces
//! are byte-identical across runs.

use crate::event::{Event, TimedEvent, ENGINE_RANK};
use crate::json::Json;

/// One compact JSON object per line, in `(rank, seq)` order.
pub fn events_to_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

/// Parses a JSONL event stream back (inverse of [`events_to_jsonl`]).
/// The error names the 1-based line and what was wrong with it.
pub fn events_from_jsonl(text: &str) -> Result<Vec<TimedEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            Json::parse(line)
                .map_err(|_| "not a JSON object".to_string())
                .and_then(|v| TimedEvent::from_json(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object
/// format), loadable in Perfetto and `chrome://tracing`.
///
/// Layout: a single process (`pid` 0) with one track per rank — `tid`
/// `rank + 1`, named `rank <r>` via thread-name metadata — plus track
/// `tid` 0 ("engine") for engine-global round events. [`Event::Phase`]
/// spans become complete (`"X"`) events; packets and per-round counts
/// become instant (`"i"`) events with their payload under `args`.
/// Timestamps are microseconds, as the format requires.
pub fn chrome_trace(events: &[TimedEvent]) -> String {
    let mut trace_events: Vec<Json> = Vec::with_capacity(events.len() + 8);

    // Thread-name metadata for every track that appears, engine first.
    let mut tids: Vec<u32> = events.iter().map(|e| tid_of(e.rank)).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = if tid == 0 {
            "engine".to_string()
        } else {
            format!("rank {}", tid - 1)
        };
        trace_events.push(Json::obj(vec![
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(0)),
            ("tid", Json::UInt(tid.into())),
            ("name", Json::Str("thread_name".into())),
            ("args", Json::obj(vec![("name", Json::Str(name))])),
        ]));
    }

    for te in events {
        let tid = tid_of(te.rank);
        match te.event {
            Event::Phase { name, start, dur } => {
                trace_events.push(Json::obj(vec![
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::UInt(0)),
                    ("tid", Json::UInt(tid.into())),
                    ("name", Json::Str(name.as_str().into())),
                    ("cat", Json::Str("phase".into())),
                    ("ts", Json::Float(start * 1e6)),
                    ("dur", Json::Float(dur * 1e6)),
                ]));
            }
            ref event => {
                let args = match event.to_json() {
                    Json::Obj(pairs) => {
                        Json::Obj(pairs.into_iter().filter(|(k, _)| k != "kind").collect())
                    }
                    other => other,
                };
                trace_events.push(Json::obj(vec![
                    ("ph", Json::Str("i".into())),
                    ("pid", Json::UInt(0)),
                    ("tid", Json::UInt(tid.into())),
                    ("name", Json::Str(event.kind().into())),
                    ("cat", Json::Str("event".into())),
                    ("s", Json::Str("t".into())),
                    ("ts", Json::Float(te.time * 1e6)),
                    ("args", args),
                ]));
            }
        }
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .to_string_pretty()
}

fn tid_of(rank: u32) -> u32 {
    if rank == ENGINE_RANK {
        0
    } else {
        rank + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseName;

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                rank: ENGINE_RANK,
                time: 0.0,
                seq: 0,
                event: Event::RoundStart { round: 0 },
            },
            TimedEvent {
                rank: 0,
                time: 0.001,
                seq: 0,
                event: Event::Phase {
                    name: PhaseName::Compute,
                    start: 0.0,
                    dur: 0.001,
                },
            },
            TimedEvent {
                rank: 0,
                time: 0.0015,
                seq: 1,
                event: Event::PacketSent {
                    dst: 1,
                    bytes: 128,
                    logical: 14,
                },
            },
            TimedEvent {
                rank: 1,
                time: 0.002,
                seq: 0,
                event: Event::PacketRecv {
                    src: 0,
                    bytes: 128,
                    logical: 14,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample_events();
        let text = events_to_jsonl(&events);
        assert_eq!(events_from_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks() {
        let text = chrome_trace(&sample_events());
        let v = Json::parse(&text).unwrap();
        let entries = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 3 tracks (engine, rank 0, rank 1) + 4 events.
        assert_eq!(entries.len(), 7);
        let names: Vec<&str> = entries
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["engine", "rank 0", "rank 1"]);
        // The phase span carries microsecond timestamps.
        let span = entries
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("dur").unwrap().as_f64().unwrap(), 1000.0);
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let events = sample_events();
        assert_eq!(chrome_trace(&events), chrome_trace(&events));
    }
}
