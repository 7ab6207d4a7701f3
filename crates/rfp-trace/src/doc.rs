//! The deterministic `rfp-trace` v1 document: span trees on named tracks,
//! non-zero counters, and count histograms.
//!
//! Logical sequence numbers are assigned **here**, at build time, by
//! walking tracks in canonical order (`"main"` first, the rest
//! lexicographic) and each track's span boundaries in emission order —
//! not at emission time — so the numbering is a pure function of the
//! recorded structure, independent of thread scheduling.

use crate::collect::{SpanEvent, TrackBuf};
use crate::json::{self, JsonError, JsonValue};
use std::collections::BTreeMap;

/// Summary statistics over dimensionless integer samples (nearest-rank
/// percentiles, so every percentile is a sample that occurred). The one
/// count summariser of the workspace: trace histograms and the sweep
/// report's frame distributions both use it. Order-independent: a multiset
/// of samples has exactly one summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountStats {
    /// Number of samples.
    pub n: u64,
    /// Sum of all samples.
    pub total: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 95th percentile (nearest rank).
    pub p95: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

/// Computes [`CountStats`] over a sample multiset (all-zero when empty).
pub fn summarize_counts(samples: &[u64]) -> CountStats {
    if samples.is_empty() {
        return CountStats { n: 0, total: 0, p50: 0, p95: 0, min: 0, max: 0 };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pct = |p: u64| {
        let rank = (p as usize * sorted.len()).div_ceil(100);
        sorted[rank.max(1) - 1]
    };
    CountStats {
        n: sorted.len() as u64,
        total: sorted.iter().sum(),
        p50: pct(50),
        p95: pct(95),
        min: sorted[0],
        max: *sorted.last().expect("non-empty"),
    }
}

/// One node of a track's span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The name passed to [`crate::span`].
    pub name: String,
    /// Logical sequence number of the span's opening.
    pub seq: u64,
    /// Logical sequence number of the span's closing (`> seq`).
    pub end: u64,
    /// Spans opened and closed while this one was open.
    pub children: Vec<Span>,
}

impl Span {
    /// The span's extent on the logical clock.
    pub fn logical_len(&self) -> u64 {
        self.end.saturating_sub(self.seq)
    }
}

/// One track: everything a named scope (or several scopes sharing the
/// name) emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Track name (`"main"`, `"job00003"`, `"milp.worker1"`, …).
    pub name: String,
    /// Top-level spans in emission order.
    pub spans: Vec<Span>,
    /// Non-zero counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, CountStats)>,
}

/// A drained trace: the deterministic `rfp-trace` v1 document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDoc {
    /// Tracks in canonical order: `"main"` first, the rest lexicographic.
    pub tracks: Vec<Track>,
}

impl TraceDoc {
    /// Folds the collector's raw buffers into the canonical document.
    pub(crate) fn build(tracks: &BTreeMap<String, TrackBuf>) -> TraceDoc {
        let mut names: Vec<&String> = tracks.keys().collect();
        names.sort_by_key(|n| (n.as_str() != "main", n.as_str()));
        let mut seq = 0u64;
        let mut out = Vec::new();
        for name in names {
            let buf = &tracks[name];
            let spans = build_tree(&buf.events, &mut seq);
            let counters: Vec<(String, u64)> =
                buf.counts.iter().filter(|(_, &v)| v != 0).map(|(n, &v)| (n.clone(), v)).collect();
            let histograms: Vec<(String, CountStats)> = buf
                .values
                .iter()
                .filter(|(_, samples)| !samples.is_empty())
                .map(|(n, samples)| (n.clone(), summarize_counts(samples)))
                .collect();
            if spans.is_empty() && counters.is_empty() && histograms.is_empty() {
                continue;
            }
            out.push(Track { name: name.clone(), spans, counters, histograms });
        }
        TraceDoc { tracks: out }
    }

    /// Serialises to the pretty-printed `rfp-trace` v1 JSON (trailing
    /// newline included). Integers only — the document is byte-stable.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"format\": \"rfp-trace\",\n  \"version\": 1,\n  \"tracks\": [");
        for (i, track) in self.tracks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\n      \"name\": \"{}\",\n      \"spans\": [",
                json::escape(&track.name)
            ));
            write_spans(&mut s, &track.spans, 8);
            s.push_str("],\n      \"counters\": {");
            for (j, (name, value)) in track.counters.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\n        \"{}\": {value}", json::escape(name)));
            }
            if !track.counters.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("},\n      \"histograms\": {");
            for (j, (name, h)) in track.histograms.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n        \"{}\": {{\"n\": {}, \"total\": {}, \"p50\": {}, \"p95\": {}, \"min\": {}, \"max\": {}}}",
                    json::escape(name),
                    h.n, h.total, h.p50, h.p95, h.min, h.max
                ));
            }
            if !track.histograms.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("}\n    }");
        }
        if !self.tracks.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses an `rfp-trace` v1 JSON document. Unknown fields are
    /// rejected and every integer must be an exact `u64`.
    pub fn from_json(text: &str) -> Result<TraceDoc, JsonError> {
        let doc = json::parse(text)?;
        let (mut format, mut version, mut tracks) = ("", 0, Vec::new());
        for (key, value) in doc.as_obj()? {
            match key.as_str() {
                "format" => format = value.as_str()?,
                "version" => version = value.as_u64()?,
                "tracks" => tracks = read_all(value, read_track)?,
                other => return Err(unknown_field("document", other)),
            }
        }
        if format != "rfp-trace" {
            return Err(JsonError(format!("not an rfp-trace file: format `{format}`")));
        }
        if version != 1 {
            return Err(JsonError(format!("unsupported rfp-trace version {version}")));
        }
        Ok(TraceDoc { tracks })
    }
}

fn unknown_field(what: &str, key: &str) -> JsonError {
    JsonError(format!("unknown {what} field `{key}`"))
}

fn read_all<T>(
    v: &JsonValue,
    read: fn(&JsonValue) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    v.as_arr()?.iter().map(read).collect()
}

fn read_track(v: &JsonValue) -> Result<Track, JsonError> {
    let mut track = Track {
        name: String::new(),
        spans: Vec::new(),
        counters: Vec::new(),
        histograms: Vec::new(),
    };
    for (key, value) in v.as_obj()? {
        match key.as_str() {
            "name" => track.name = value.as_str()?.to_string(),
            "spans" => track.spans = read_all(value, read_span)?,
            "counters" => {
                track.counters = value
                    .as_obj()?
                    .iter()
                    .map(|(name, n)| Ok((name.clone(), n.as_u64()?)))
                    .collect::<Result<_, JsonError>>()?
            }
            "histograms" => {
                track.histograms = value
                    .as_obj()?
                    .iter()
                    .map(|(name, h)| Ok((name.clone(), read_histogram(h)?)))
                    .collect::<Result<_, JsonError>>()?
            }
            other => return Err(unknown_field("track", other)),
        }
    }
    Ok(track)
}

fn read_span(v: &JsonValue) -> Result<Span, JsonError> {
    let mut span = Span { name: String::new(), seq: 0, end: 0, children: Vec::new() };
    for (key, value) in v.as_obj()? {
        match key.as_str() {
            "name" => span.name = value.as_str()?.to_string(),
            "seq" => span.seq = value.as_u64()?,
            "end" => span.end = value.as_u64()?,
            "children" => span.children = read_all(value, read_span)?,
            other => return Err(unknown_field("span", other)),
        }
    }
    Ok(span)
}

fn read_histogram(v: &JsonValue) -> Result<CountStats, JsonError> {
    let mut h = CountStats { n: 0, total: 0, p50: 0, p95: 0, min: 0, max: 0 };
    for (key, value) in v.as_obj()? {
        let slot = match key.as_str() {
            "n" => &mut h.n,
            "total" => &mut h.total,
            "p50" => &mut h.p50,
            "p95" => &mut h.p95,
            "min" => &mut h.min,
            "max" => &mut h.max,
            other => return Err(unknown_field("histogram", other)),
        };
        *slot = value.as_u64()?;
    }
    Ok(h)
}

fn write_spans(s: &mut String, spans: &[Span], indent: usize) {
    let pad = " ".repeat(indent);
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(&pad);
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"seq\": {}, \"end\": {}, \"children\": [",
            json::escape(&span.name),
            span.seq,
            span.end
        ));
        if !span.children.is_empty() {
            write_spans(s, &span.children, indent + 2);
            s.push('\n');
            s.push_str(&pad);
        }
        s.push_str("]}");
    }
    if !spans.is_empty() {
        s.push('\n');
        s.push_str(&" ".repeat(indent.saturating_sub(2)));
    }
}

/// Builds the span forest of one track, ticking the document-global
/// logical clock once per boundary. Unbalanced exits are dropped;
/// unclosed spans close at the track's end.
fn build_tree(events: &[SpanEvent], seq: &mut u64) -> Vec<Span> {
    let mut roots: Vec<Span> = Vec::new();
    let mut stack: Vec<Span> = Vec::new();
    let mut tick = || {
        let s = *seq;
        *seq += 1;
        s
    };
    for event in events {
        match event {
            SpanEvent::Enter(name) => {
                stack.push(Span { name: name.clone(), seq: tick(), end: 0, children: Vec::new() })
            }
            SpanEvent::Exit => {
                if let Some(mut span) = stack.pop() {
                    span.end = tick();
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(span),
                        None => roots.push(span),
                    }
                }
            }
        }
    }
    while let Some(mut span) = stack.pop() {
        span.end = tick();
        match stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => roots.push(span),
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, record, span, Collector};

    #[test]
    fn summarize_matches_the_nearest_rank_definition() {
        let s = summarize_counts(&[4, 1, 3, 2]);
        assert_eq!(s, CountStats { n: 4, total: 10, p50: 2, p95: 4, min: 1, max: 4 });
        assert_eq!(
            summarize_counts(&[]),
            CountStats { n: 0, total: 0, p50: 0, p95: 0, min: 0, max: 0 }
        );
        // 1..=20: p50 is the 10th sample, p95 the 19th (not the maximum).
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(
            summarize_counts(&twenty),
            CountStats { n: 20, total: 210, p50: 10, p95: 19, min: 1, max: 20 }
        );
        let shuffled = summarize_counts(&[2, 4, 1, 3]);
        assert_eq!(s, shuffled, "order-independent");
    }

    #[test]
    fn span_trees_nest_and_sequence_canonically() {
        let collector = Collector::new();
        {
            let _s = collector.install("main");
            let _outer = span("solve");
            {
                let _inner = span("presolve");
            }
            {
                let _inner = span("search");
                count("nodes", 1);
            }
        }
        {
            let _s = collector.install("aux");
            let _sp = span("side");
        }
        let doc = collector.drain();
        assert_eq!(doc.tracks.len(), 2);
        assert_eq!(doc.tracks[0].name, "main", "main sorts first");
        let solve = &doc.tracks[0].spans[0];
        assert_eq!(solve.seq, 0);
        assert_eq!(solve.children[0].name, "presolve");
        assert_eq!(solve.children[0].seq, 1);
        assert_eq!(solve.children[0].end, 2);
        assert_eq!(solve.children[1].name, "search");
        assert_eq!(solve.end, 5);
        assert_eq!(doc.tracks[1].spans[0].seq, 6, "the clock is document-global");
    }

    #[test]
    fn unclosed_spans_close_at_track_end() {
        let collector = Collector::new();
        {
            let _s = collector.install("main");
            let open = span("left-open");
            std::mem::forget(open);
        }
        let doc = collector.drain();
        assert_eq!(doc.tracks[0].spans[0].end, 1);
    }

    #[test]
    fn json_round_trips() {
        let collector = Collector::new();
        {
            let _s = collector.install("main");
            let _a = span("a");
            count("c\"tricky\\name", 3);
            record("h", 1);
            record("h", 2);
        }
        let doc = collector.drain();
        let text = doc.to_json();
        let parsed = TraceDoc::from_json(&text).expect("parses");
        assert_eq!(doc, parsed);
        assert_eq!(parsed.to_json(), text, "writer is a fixpoint");
    }

    #[test]
    fn empty_doc_round_trips() {
        let doc = TraceDoc::default();
        assert_eq!(TraceDoc::from_json(&doc.to_json()).unwrap(), doc);
    }

    /// A trace whose spans nest `depth` deep, written by hand: the writer
    /// itself recurses per level.
    fn nested_spans(depth: usize) -> String {
        let open = r#"{"name": "s", "seq": 0, "end": 0, "children": ["#;
        format!(
            r#"{{"format": "rfp-trace", "version": 1, "tracks": [{{"name": "main", "spans": [{}{}], "counters": {{}}, "histograms": {{}}}}]}}"#,
            open.repeat(depth),
            "]}".repeat(depth)
        )
    }

    #[test]
    fn deeply_nested_spans_are_an_error_not_a_stack_overflow() {
        let doc = TraceDoc::from_json(&nested_spans(40)).expect("40 levels parse");
        assert_eq!(doc.tracks[0].spans[0].children[0].name, "s");
        let e = TraceDoc::from_json(&nested_spans(50_000)).unwrap_err();
        assert!(e.0.contains("nesting deeper than"), "{e}");
    }

    #[test]
    fn integers_must_be_exact_u64() {
        let doc = |n: &str| {
            format!(
                r#"{{"format": "rfp-trace", "version": 1, "tracks": [{{"name": "main", "spans": [], "counters": {{"c": {n}}}, "histograms": {{}}}}]}}"#
            )
        };
        let max = TraceDoc::from_json(&doc("18446744073709551615")).unwrap();
        assert_eq!(max.tracks[0].counters[0].1, u64::MAX);
        for bad in ["18446744073709551616", "-1", "1.5", "\"7\""] {
            assert!(TraceDoc::from_json(&doc(bad)).is_err(), "{bad}");
        }
    }
}
