//! The length-prefixed newline-JSON wire protocol.
//!
//! One connection carries any number of interleaved tenants. Each
//! client frame is a single JSON object on its own line; a `feed` frame
//! is followed by exactly `bytes` raw bytes of 17-byte `WOMTRC` records
//! (the length prefix — no base64, no re-framing):
//!
//! ```text
//! {"op":"open","session":"t0","arch":"wcpcm","preset":"tiny","epoch_cycles":50000,"tags":{"bench":"x"}}
//! {"op":"feed","session":"t0","bytes":1700}<1700 raw record bytes>
//! {"op":"poll","session":"t0"}
//! {"op":"finish","session":"t0"}
//! {"op":"shutdown"}
//! ```
//!
//! Server frames are JSON lines too: `ok` acknowledgements, typed
//! `error` frames (`kind` one of `bad_frame`, `busy`, `evicted`,
//! `unknown_session`, `already_open`, `finished`, `failed`,
//! `invalid_spec`, `timeout`, `shutdown`, `sim`), streamed `epoch`
//! frames whose `line` field is the *exact* JSONL line the whole-series
//! exporter would write (so a client can dump them verbatim and diff
//! against a single-tenant golden file), and one `finished` frame with
//! the record count and metrics digest.
//!
//! A malformed control frame earns a `bad_frame` error for that line
//! only; other sessions on the connection are untouched.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use pcm_trace::binary::{decode_records_into, RECORD_BYTES};
use pcm_trace::TraceRecord;
use wom_pcm::session::SessionSpec;
use wom_pcm::{Architecture, SystemConfig};

use crate::json::{self, Json};
use crate::service::{Service, ServiceConfig, ServiceError, SessionEvent};

/// How long `finish` waits between events before giving up.
const FINISH_EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Serves one client connection until EOF or a `shutdown` frame.
///
/// # Errors
///
/// Propagates transport I/O errors; protocol errors are reported to the
/// client in-band and never tear down the connection.
pub fn serve_connection<R: BufRead, W: Write>(
    service: &Service,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    let mut line = String::new();
    let mut payload = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let frame = line.trim();
        if frame.is_empty() {
            continue;
        }
        let parsed = match json::parse(frame) {
            Ok(v) => v,
            Err(e) => {
                respond_error(writer, None, "bad_frame", &e.to_string())?;
                continue;
            }
        };
        match dispatch(service, &parsed, reader, writer, &mut payload)? {
            Flow::Continue => {}
            Flow::Shutdown => return Ok(()),
        }
    }
}

enum Flow {
    Continue,
    Shutdown,
}

fn dispatch<R: BufRead, W: Write>(
    service: &Service,
    frame: &Json,
    reader: &mut R,
    writer: &mut W,
    payload: &mut Vec<u8>,
) -> io::Result<Flow> {
    let op = frame.get("op").and_then(Json::as_str).unwrap_or_default();
    match op {
        "open" => op_open(service, frame, writer)?,
        "feed" => op_feed(service, frame, reader, writer, payload)?,
        "poll" => op_poll(service, frame, writer)?,
        "finish" => op_finish(service, frame, writer)?,
        "shutdown" => {
            respond_ok(writer, "shutdown", None)?;
            writer.flush()?;
            return Ok(Flow::Shutdown);
        }
        _ => respond_error(writer, None, "bad_frame", &format!("unknown op '{op}'"))?,
    }
    writer.flush()?;
    Ok(Flow::Continue)
}

fn session_name(frame: &Json) -> Option<&str> {
    frame.get("session").and_then(Json::as_str)
}

/// Builds a [`SessionSpec`] from an `open` frame: `arch` (an
/// architecture slug), `preset` (`tiny` or the default `paper`), and
/// optional `epoch_cycles`.
fn spec_from_frame(frame: &Json) -> Result<SessionSpec, String> {
    let arch = match frame.get("arch").and_then(Json::as_str) {
        None => return Err("open frame needs an 'arch' slug".to_string()),
        Some(slug) => Architecture::all_paper()
            .into_iter()
            .find(|a| a.slug() == slug)
            .ok_or_else(|| format!("unknown arch '{slug}'"))?,
    };
    let config = match frame.get("preset").and_then(Json::as_str) {
        Some("tiny") => SystemConfig::tiny(arch),
        Some("paper") | None => SystemConfig::paper(arch),
        Some(other) => return Err(format!("unknown preset '{other}'")),
    };
    let mut spec = SessionSpec::new(config);
    if let Some(width) = frame.get("epoch_cycles").and_then(Json::as_u64) {
        if width == 0 {
            return Err("epoch_cycles must be positive".to_string());
        }
        spec = spec.epoch_cycles(width);
    }
    Ok(spec)
}

fn tags_from_frame(frame: &Json) -> Result<Vec<(String, String)>, String> {
    let Some(tags) = frame.get("tags") else {
        return Ok(Vec::new());
    };
    let Some(fields) = tags.as_obj() else {
        return Err("'tags' must be an object of strings".to_string());
    };
    let mut out = Vec::with_capacity(fields.len());
    for (key, value) in fields {
        match value.as_str() {
            Some(v) => out.push((key.clone(), v.to_string())),
            None => return Err(format!("tag '{key}' must be a string")),
        }
    }
    Ok(out)
}

fn op_open<W: Write>(service: &Service, frame: &Json, writer: &mut W) -> io::Result<()> {
    let Some(name) = session_name(frame) else {
        return respond_error(writer, None, "bad_frame", "open frame needs a 'session'");
    };
    let spec = match spec_from_frame(frame) {
        Ok(spec) => spec,
        Err(message) => return respond_error(writer, Some(name), "bad_frame", &message),
    };
    let tags = match tags_from_frame(frame) {
        Ok(tags) => tags,
        Err(message) => return respond_error(writer, Some(name), "bad_frame", &message),
    };
    match service.open(name, spec, &tags) {
        Ok(()) => respond_ok(writer, "open", Some(name)),
        Err(e) => respond_service_error(writer, Some(name), &e),
    }
}

fn op_feed<R: BufRead, W: Write>(
    service: &Service,
    frame: &Json,
    reader: &mut R,
    writer: &mut W,
    payload: &mut Vec<u8>,
) -> io::Result<()> {
    let Some(bytes) = frame.get("bytes").and_then(Json::as_u64) else {
        return respond_error(
            writer,
            session_name(frame),
            "bad_frame",
            "feed frame needs a 'bytes' count",
        );
    };
    // The payload always follows the frame, so it must be drained even
    // when the frame is otherwise unusable — otherwise record bytes
    // would be reparsed as control frames.
    payload.clear();
    Read::take(reader.by_ref(), bytes).read_to_end(payload)?;
    if (payload.len() as u64) < bytes {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "feed payload cut short",
        ));
    }
    let Some(name) = session_name(frame) else {
        return respond_error(writer, None, "bad_frame", "feed frame needs a 'session'");
    };
    let mut records: Vec<TraceRecord> = Vec::with_capacity(payload.len() / RECORD_BYTES);
    if let Err(e) = decode_records_into(payload, 0, &mut records) {
        return respond_error(writer, Some(name), "bad_frame", &e.to_string());
    }
    let count = records.len();
    match service.feed(name, records) {
        Ok(()) => {
            let mut line = String::new();
            line.push_str("{\"event\":\"ok\",\"op\":\"feed\",\"session\":");
            json::push_string(&mut line, name);
            line.push_str(&format!(",\"records\":{count}}}"));
            writeln!(writer, "{line}")?;
            drain_events(service, name, writer)
        }
        Err(e) => respond_service_error(writer, Some(name), &e),
    }
}

fn op_poll<W: Write>(service: &Service, frame: &Json, writer: &mut W) -> io::Result<()> {
    let Some(name) = session_name(frame) else {
        return respond_error(writer, None, "bad_frame", "poll frame needs a 'session'");
    };
    drain_events(service, name, writer)?;
    respond_ok(writer, "poll", Some(name))
}

fn op_finish<W: Write>(service: &Service, frame: &Json, writer: &mut W) -> io::Result<()> {
    let Some(name) = session_name(frame) else {
        return respond_error(writer, None, "bad_frame", "finish frame needs a 'session'");
    };
    match service.finish_wait(name, FINISH_EVENT_TIMEOUT) {
        Ok(events) => {
            for event in &events {
                write_event(writer, name, event)?;
            }
            service.close(name);
            Ok(())
        }
        Err(e) => respond_service_error(writer, Some(name), &e),
    }
}

fn drain_events<W: Write>(service: &Service, name: &str, writer: &mut W) -> io::Result<()> {
    let events = match service.poll(name) {
        Ok(events) => events,
        Err(e) => return respond_service_error(writer, Some(name), &e),
    };
    for event in &events {
        write_event(writer, name, event)?;
    }
    Ok(())
}

fn write_event<W: Write>(writer: &mut W, name: &str, event: &SessionEvent) -> io::Result<()> {
    let mut line = String::new();
    match event {
        SessionEvent::Epoch { index, line: jsonl } => {
            line.push_str("{\"event\":\"epoch\",\"session\":");
            json::push_string(&mut line, name);
            line.push_str(&format!(",\"index\":{index},\"line\":"));
            json::push_string(&mut line, jsonl);
            line.push('}');
        }
        SessionEvent::Finished {
            records,
            metrics_fnv,
            ..
        } => {
            line.push_str("{\"event\":\"finished\",\"session\":");
            json::push_string(&mut line, name);
            line.push_str(&format!(
                ",\"records\":{records},\"metrics_fnv\":\"{metrics_fnv:016x}\"}}"
            ));
        }
        SessionEvent::Error { kind, message } => {
            return respond_error(writer, Some(name), kind, message);
        }
    }
    writeln!(writer, "{line}")
}

fn respond_ok<W: Write>(writer: &mut W, op: &str, session: Option<&str>) -> io::Result<()> {
    let mut line = String::new();
    line.push_str("{\"event\":\"ok\",\"op\":");
    json::push_string(&mut line, op);
    if let Some(name) = session {
        line.push_str(",\"session\":");
        json::push_string(&mut line, name);
    }
    line.push('}');
    writeln!(writer, "{line}")
}

fn respond_error<W: Write>(
    writer: &mut W,
    session: Option<&str>,
    kind: &str,
    message: &str,
) -> io::Result<()> {
    let mut line = String::new();
    line.push_str("{\"event\":\"error\",\"kind\":");
    json::push_string(&mut line, kind);
    if let Some(name) = session {
        line.push_str(",\"session\":");
        json::push_string(&mut line, name);
    }
    line.push_str(",\"message\":");
    json::push_string(&mut line, message);
    line.push('}');
    writeln!(writer, "{line}")
}

fn respond_service_error<W: Write>(
    writer: &mut W,
    session: Option<&str>,
    error: &ServiceError,
) -> io::Result<()> {
    respond_error(writer, session, error.kind(), &error.to_string())
}

/// Starts a [`Service`] with `config` and serves the protocol on it:
/// over TCP when `listen` names an address (announced on stderr as
/// `<program>: listening on <addr>`), else over stdin/stdout. The one
/// serve path of the `womd` binary and `womsim serve`.
///
/// # Errors
///
/// A one-line message naming what failed: starting the worker pool,
/// binding `listen`, or the transport.
pub fn serve(program: &str, config: ServiceConfig, listen: Option<&str>) -> Result<(), String> {
    let service = Service::start(config).map_err(|e| format!("cannot start worker pool: {e}"))?;
    let served = match listen {
        None => serve_stdio(&service),
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            eprintln!("{program}: listening on {addr}");
            serve_tcp(&listener, &Arc::new(service))
        }
    };
    served.map_err(|e| format!("transport error: {e}"))
}

/// Serves the protocol over stdin/stdout until EOF or `shutdown`.
///
/// # Errors
///
/// Propagates transport I/O errors.
fn serve_stdio(service: &Service) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = BufWriter::new(stdout.lock());
    serve_connection(service, &mut reader, &mut writer)
}

/// Accepts TCP connections forever, serving each on its own thread
/// against the shared `service`. A `shutdown` frame closes only its own
/// connection; stop the process to stop listening.
///
/// # Errors
///
/// Propagates accept-loop I/O errors.
fn serve_tcp(listener: &TcpListener, service: &Arc<Service>) -> io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let service = Arc::clone(service);
        std::thread::Builder::new()
            .name("womd-conn".to_string())
            .spawn(move || {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let mut reader = BufReader::new(read_half);
                let mut writer = BufWriter::new(stream);
                let _ = serve_connection(&service, &mut reader, &mut writer);
            })?;
    }
    Ok(())
}
