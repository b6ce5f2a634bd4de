//! Minimal HTTP/1.0 metrics responder.
//!
//! Serves the current Prometheus exposition on every request, whatever
//! the path — a scrape endpoint, not a web server. Built directly on
//! `std::net`: `crates/net` cannot serve it (it depends on `core`, which
//! depends on us), and no HTTP crate is vendored.
//!
//! The accept loop polls a nonblocking listener and checks a shutdown
//! flag between polls, so dropping the [`MetricsServer`] stops the
//! background thread promptly without a wakeup connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::Telemetry;

/// Content type of the Prometheus text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// A background thread serving `telemetry.prometheus()` over HTTP/1.0.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving.
    pub fn bind(addr: &str, telemetry: Telemetry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = thread::Builder::new()
            .name("obs-metrics-http".to_string())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Serve inline: scrapes are rare and tiny, a
                            // thread per connection would be pure noise.
                            let _ = respond(stream, &telemetry);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
            .expect("spawn metrics server thread");
        Ok(Self {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server and wait for the thread to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn respond(mut stream: TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    // Drain the request line + headers; we answer every request the same
    // way, so parsing beyond "the client sent something" is unnecessary.
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf);
    let body = telemetry.prometheus();
    let header = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::{parse_prometheus, value_of};

    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("response");
        out
    }

    #[test]
    fn serves_valid_exposition_and_shuts_down() {
        let tel = Telemetry::enabled();
        tel.counter("automon_messages_total", "messages").add(7);
        let server = MetricsServer::bind("127.0.0.1:0", tel.clone()).expect("bind");
        let addr = server.local_addr();

        let response = scrape(addr);
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(head.contains(CONTENT_TYPE), "{head}");
        let samples = parse_prometheus(body).expect("body must be valid exposition");
        assert_eq!(value_of(&samples, "automon_messages_total", &[]), Some(7.0));

        // A second scrape sees updated values.
        tel.counter("automon_messages_total", "messages").add(3);
        let response = scrape(addr);
        let body = response.split_once("\r\n\r\n").expect("split").1;
        let samples = parse_prometheus(body).expect("parse");
        assert_eq!(value_of(&samples, "automon_messages_total", &[]), Some(10.0));

        // Shutdown must join the server thread without hanging.
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_still_gets_an_exposition() {
        let tel = Telemetry::enabled();
        tel.counter("automon_x_total", "x").add(1);
        let server = MetricsServer::bind("127.0.0.1:0", tel).expect("bind");
        let addr = server.local_addr();

        // Not HTTP at all: the responder answers every connection the
        // same way rather than wedging on parse errors.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"\x00\xffnot http\r\n").expect("garbage");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("response");
        let (head, body) = out.split_once("\r\n\r\n").expect("split");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        let samples = parse_prometheus(body).expect("valid exposition");
        assert_eq!(value_of(&samples, "automon_x_total", &[]), Some(1.0));

        // The server remains healthy for a well-formed scrape after.
        let response = scrape(addr);
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    }

    #[test]
    fn concurrent_scrapes_all_succeed() {
        let tel = Telemetry::enabled();
        tel.counter("automon_y_total", "y").add(5);
        let server = MetricsServer::bind("127.0.0.1:0", tel).expect("bind");
        let addr = server.local_addr();

        let workers: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || scrape(addr)))
            .collect();
        for w in workers {
            let response = w.join().expect("scraper thread");
            let body = response.split_once("\r\n\r\n").expect("split").1;
            let samples = parse_prometheus(body).expect("valid exposition");
            assert_eq!(value_of(&samples, "automon_y_total", &[]), Some(5.0));
        }
    }

    #[test]
    fn connection_drop_mid_response_does_not_kill_the_server() {
        let tel = Telemetry::enabled();
        // A fat body so the write can outlive an early hangup.
        for i in 0..256 {
            tel.counter(&format!("automon_bulk_{i}_total"), "bulk").add(i);
        }
        let server = MetricsServer::bind("127.0.0.1:0", tel).expect("bind");
        let addr = server.local_addr();

        // Connect, send nothing, and hang up immediately — the respond
        // path hits either a read timeout or a broken-pipe write.
        for _ in 0..3 {
            let stream = TcpStream::connect(addr).expect("connect");
            drop(stream);
        }
        // And one that dies right after the request line.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
        drop(stream);

        // The accept loop must still be alive and serving.
        let response = scrape(addr);
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        server.shutdown();
    }
}
