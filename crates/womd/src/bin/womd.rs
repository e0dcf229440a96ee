//! The `womd` service binary: stdio by default, TCP with `--listen`.

use std::process::exit;

use womd::service::ServiceConfig;
use womd::wire;

const USAGE: &str = "womd [--listen ADDR] [--workers N] [--max-resident N] \
                     [--max-sessions N] [--queue-batches N]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {USAGE}");
    exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: {USAGE}");
        println!();
        println!("Serves the womd wire protocol (newline-JSON control frames with");
        println!("raw WOMTRC record payloads) over stdin/stdout, or over TCP when");
        println!("--listen is given. See DESIGN.md §13 for the frame format.");
        return;
    }
    let mut value = |name: &str| -> Option<String> {
        let pos = args.iter().position(|a| a == name)?;
        if pos + 1 >= args.len() {
            fail(&format!("{name} requires a value"));
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        if args.iter().any(|a| a == name) {
            fail(&format!("duplicate {name}"));
        }
        Some(v)
    };
    let listen = value("--listen");
    let mut config = ServiceConfig::default();
    let mut numeric = |name: &str, slot: &mut usize| {
        if let Some(raw) = value(name) {
            match raw.parse::<usize>() {
                Ok(n) if n > 0 => *slot = n,
                _ => fail(&format!("{name} wants a positive integer, got '{raw}'")),
            }
        }
    };
    numeric("--workers", &mut config.workers);
    numeric("--max-resident", &mut config.max_resident);
    numeric("--max-sessions", &mut config.max_sessions);
    let mut queue = config.queue_batches as usize;
    numeric("--queue-batches", &mut queue);
    config.queue_batches = u32::try_from(queue).unwrap_or(u32::MAX);
    if let Some(extra) = args.first() {
        fail(&format!("unexpected argument '{extra}'"));
    }

    if let Err(e) = wire::serve("womd", config, listen.as_deref()) {
        eprintln!("womd: {e}");
        exit(1);
    }
}
