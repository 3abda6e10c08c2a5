//! Trace sinks: JSONL and Chrome `trace_event` exporters.

use std::io::{self, Write};

use simcore::Time;

use crate::json::escape;
use crate::probe::{PacketId, Probe};

/// Formats the shared identity fields of a packet event.
fn id_fields(id: PacketId) -> String {
    format!(
        "\"span\":{},\"seq\":{},\"class\":{},\"size\":{},\"hop\":{}",
        id.span, id.seq, id.class, id.size, id.hop
    )
}

/// A line-per-event JSONL exporter.
///
/// Each probe event becomes exactly one JSON object on its own line, with a
/// stable key order, so the byte stream is a pure function of the event
/// stream — the golden-determinism tests pin the trace-replay and streaming
/// paths to identical JSONL output. Line vocabulary (see [`crate::schema`]
/// for the machine-checkable version):
///
/// ```text
/// {"ev":"arrival","t":…,"span":…,"seq":…,"class":…,"size":…,"hop":…}
/// {"ev":"enqueue", same fields}
/// {"ev":"decision","t":…,"hop":…,"sched":"WTP","winner":…,"span":…,"values":[[class,value],…]}
/// {"ev":"depart","t":finish,…id fields…,"arrival":…,"start":…,"finish":…,"eol":true|false}
/// {"ev":"drop","t":…,…id fields…,"backlog":…,"buffer":…}
/// {"ev":"heartbeat","t":…,"events":…,"heap":…}
/// {"ev":"scenario","t":…,"link":…,"kind":"set_sdp","value":…}
/// ```
///
/// Write errors are sticky: the first failure is remembered, later events
/// are discarded, and [`JsonlSink::finish`] reports it.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (hand it something buffered for real runs).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            error: None,
            lines: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    fn line(&mut self, body: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{body}") {
            self.error = Some(e);
        } else {
            self.lines += 1;
        }
    }

    /// Flushes and returns the writer, or the first write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Probe for JsonlSink<W> {
    fn on_arrival(&mut self, at: Time, id: PacketId) {
        self.line(&format!(
            "{{\"ev\":\"arrival\",\"t\":{},{}}}",
            at.ticks(),
            id_fields(id)
        ));
    }

    fn on_enqueue(&mut self, at: Time, id: PacketId) {
        self.line(&format!(
            "{{\"ev\":\"enqueue\",\"t\":{},{}}}",
            at.ticks(),
            id_fields(id)
        ));
    }

    fn on_decision(
        &mut self,
        at: Time,
        scheduler: &'static str,
        winner: PacketId,
        values: &[(usize, f64)],
    ) {
        let mut vals = String::from("[");
        for (i, (c, v)) in values.iter().enumerate() {
            if i > 0 {
                vals.push(',');
            }
            vals.push_str(&format!("[{c},{v}]"));
        }
        vals.push(']');
        self.line(&format!(
            "{{\"ev\":\"decision\",\"t\":{},\"hop\":{},\"sched\":\"{}\",\"winner\":{},\"span\":{},\"values\":{}}}",
            at.ticks(),
            winner.hop,
            escape(scheduler),
            winner.class,
            winner.span,
            vals
        ));
    }

    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        self.line(&format!(
            "{{\"ev\":\"depart\",\"t\":{},{},\"arrival\":{},\"start\":{},\"finish\":{},\"eol\":{}}}",
            finish.ticks(),
            id_fields(id),
            arrival.ticks(),
            start.ticks(),
            finish.ticks(),
            eol
        ));
    }

    fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
        self.line(&format!(
            "{{\"ev\":\"drop\",\"t\":{},{},\"backlog\":{},\"buffer\":{}}}",
            at.ticks(),
            id_fields(id),
            backlog_bytes,
            buffer_bytes
        ));
    }

    fn on_heartbeat(&mut self, at: Time, events_handled: u64, heap_depth: usize) {
        self.line(&format!(
            "{{\"ev\":\"heartbeat\",\"t\":{},\"events\":{},\"heap\":{}}}",
            at.ticks(),
            events_handled,
            heap_depth
        ));
    }

    fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
        self.line(&format!(
            "{{\"ev\":\"scenario\",\"t\":{},\"link\":{},\"kind\":\"{}\",\"value\":{}}}",
            at.ticks(),
            link,
            escape(kind),
            value
        ));
    }
}

/// A Chrome `trace_event` exporter — open the result in `chrome://tracing`
/// or <https://ui.perfetto.dev> for a visual packet timeline.
///
/// Mapping (1 virtual tick = 1 µs on the timeline):
///
/// * packet lifetime — **async span** (`ph:"b"` at arrival, `ph:"e"` at the
///   end-of-life departure) keyed by `id = span`, so a multi-hop journey is
///   one horizontal track; intermediate-hop departures appear as async
///   instants (`ph:"n"`) on the same track;
/// * scheduler decision — instant event named `"SCHED→class N"` carrying
///   the per-class decision values in `args`;
/// * drop — instant event carrying buffer occupancy at the drop instant;
/// * heartbeat — counter event (`ph:"C"`) plotting event-queue depth.
///
/// Tracks are laid out `pid = 0`, `tid = class + 1` (Chrome hides tid 0 in
/// some builds). Errors are sticky as in [`JsonlSink`].
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write> {
    out: W,
    error: Option<io::Error>,
    first: bool,
    events: u64,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps a writer and emits the JSON preamble.
    pub fn new(mut out: W) -> Self {
        let error = out
            .write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
            .err();
        ChromeTraceSink {
            out,
            error,
            first: true,
            events: 0,
        }
    }

    /// Trace events successfully written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn event(&mut self, body: &str) {
        if self.error.is_some() {
            return;
        }
        let sep = if self.first { "" } else { ",\n" };
        self.first = false;
        if let Err(e) = write!(self.out, "{sep}{body}") {
            self.error = Some(e);
        } else {
            self.events += 1;
        }
    }

    /// Closes the JSON document, flushes, and returns the writer (or the
    /// first write error). Without this call the file is truncated JSON.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.write_all(b"\n]}\n")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Probe for ChromeTraceSink<W> {
    fn on_arrival(&mut self, at: Time, id: PacketId) {
        self.event(&format!(
            "{{\"name\":\"class {}\",\"cat\":\"packet\",\"ph\":\"b\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"seq\":{},\"size\":{}}}}}",
            id.class + 1,
            id.span,
            at.ticks(),
            id.class as u32 + 1,
            id.seq,
            id.size
        ));
    }

    fn on_decision(
        &mut self,
        at: Time,
        scheduler: &'static str,
        winner: PacketId,
        values: &[(usize, f64)],
    ) {
        let mut args = String::from("{");
        args.push_str(&format!("\"winner\":{}", winner.class));
        for (c, v) in values {
            args.push_str(&format!(",\"c{c}\":{v}"));
        }
        args.push('}');
        self.event(&format!(
            "{{\"name\":\"{}\\u2192class {}\",\"cat\":\"decision\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\
             \"tid\":{},\"args\":{}}}",
            escape(scheduler),
            winner.class + 1,
            at.ticks(),
            winner.class as u32 + 1,
            args
        ));
    }

    fn on_depart(&mut self, id: PacketId, _arrival: Time, start: Time, finish: Time, eol: bool) {
        let ph = if eol { "e" } else { "n" };
        self.event(&format!(
            "{{\"name\":\"class {}\",\"cat\":\"packet\",\"ph\":\"{}\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"hop\":{},\"start\":{}}}}}",
            id.class + 1,
            ph,
            id.span,
            finish.ticks(),
            id.class as u32 + 1,
            id.hop,
            start.ticks()
        ));
    }

    fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
        self.event(&format!(
            "{{\"name\":\"drop class {}\",\"cat\":\"drop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"span\":{},\"backlog\":{},\"buffer\":{}}}}}",
            id.class + 1,
            at.ticks(),
            id.class as u32 + 1,
            id.span,
            backlog_bytes,
            buffer_bytes
        ));
    }

    fn on_heartbeat(&mut self, at: Time, _events_handled: u64, heap_depth: usize) {
        self.event(&format!(
            "{{\"name\":\"event queue\",\"cat\":\"engine\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
             \"args\":{{\"depth\":{}}}}}",
            at.ticks(),
            heap_depth
        ));
    }

    fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
        // Global instant (scope "g") so the perturbation is a vertical line
        // across every class track.
        self.event(&format!(
            "{{\"name\":\"{}\",\"cat\":\"scenario\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":0,\
             \"args\":{{\"link\":{},\"value\":{}}}}}",
            escape(kind),
            at.ticks(),
            link,
            value
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64, class: u8, size: u32) -> PacketId {
        PacketId::single_link(seq, class, size)
    }

    fn drive<P: Probe>(p: &mut P) {
        p.on_arrival(Time::ZERO, id(0, 1, 100));
        p.on_enqueue(Time::ZERO, id(0, 1, 100));
        p.on_decision(
            Time::from_ticks(3),
            "WTP",
            id(0, 1, 100),
            &[(0, 1.5), (1, 6.0)],
        );
        p.on_depart(
            id(0, 1, 100),
            Time::ZERO,
            Time::from_ticks(3),
            Time::from_ticks(103),
            true,
        );
        p.on_drop(Time::from_ticks(104), id(1, 0, 40), 200, 256);
        p.on_heartbeat(Time::from_ticks(105), 42, 3);
        p.on_scenario_event(Time::from_ticks(106), 0, "set_sdp", 0.0);
    }

    #[test]
    fn jsonl_lines_match_the_documented_vocabulary() {
        let mut sink = JsonlSink::new(Vec::new());
        drive(&mut sink);
        assert_eq!(sink.lines(), 7);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(
            lines[0],
            "{\"ev\":\"arrival\",\"t\":0,\"span\":0,\"seq\":0,\"class\":1,\"size\":100,\"hop\":0}"
        );
        assert_eq!(
            lines[2],
            "{\"ev\":\"decision\",\"t\":3,\"hop\":0,\"sched\":\"WTP\",\"winner\":1,\"span\":0,\"values\":[[0,1.5],[1,6]]}"
        );
        assert!(lines[3].contains("\"eol\":true"));
        assert!(lines[4].contains("\"backlog\":200"));
        assert!(lines[5].contains("\"heap\":3"));
        assert_eq!(
            lines[6],
            "{\"ev\":\"scenario\",\"t\":106,\"link\":0,\"kind\":\"set_sdp\",\"value\":0}"
        );
        // Every line validates against the schema.
        for l in &lines {
            crate::schema::validate_line(l).unwrap();
        }
    }

    #[test]
    fn jsonl_is_deterministic() {
        let run = || {
            let mut sink = JsonlSink::new(Vec::new());
            drive(&mut sink);
            sink.finish().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chrome_trace_brackets_and_pairs() {
        let mut sink = ChromeTraceSink::new(Vec::new());
        drive(&mut sink);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.trim_end().ends_with("]}"));
        // One begin and one matching end for the departed packet.
        assert_eq!(text.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(text.matches("\"ph\":\"e\"").count(), 1);
        // Decision + drop instants, global scenario instant, heartbeat.
        assert_eq!(text.matches("\"ph\":\"i\"").count(), 3);
        assert_eq!(text.matches("\"s\":\"g\"").count(), 1);
        assert_eq!(text.matches("\"ph\":\"C\"").count(), 1);
    }

    #[test]
    fn intermediate_hop_departure_is_an_async_instant() {
        let mut sink = ChromeTraceSink::new(Vec::new());
        sink.on_depart(
            id(0, 0, 10),
            Time::ZERO,
            Time::ZERO,
            Time::from_ticks(10),
            false,
        );
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.contains("\"ph\":\"n\""));
        assert!(!text.contains("\"ph\":\"e\""));
    }

    #[test]
    fn sticky_error_surfaces_in_finish() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.on_heartbeat(Time::ZERO, 0, 0);
        sink.on_heartbeat(Time::ZERO, 1, 0); // discarded, no panic
        assert_eq!(sink.lines(), 0);
        assert!(sink.finish().is_err());
    }
}
