//! The TCP frontend: JSON-lines over `std::net`, one thread per
//! connection, no async runtime.
//!
//! Every connection is an independent sequence of request/response frames
//! against the shared [`Service`]; ordering across connections is
//! irrelevant to session histories (see the determinism argument in
//! [`crate::service`]). Malformed frames get a [`Response::Error`] reply
//! and the connection continues; an oversized frame cannot be
//! re-synchronized, so the server replies with an error and closes the
//! connection. Both are counted (`serve.rejected.malformed`,
//! `serve.rejected.oversized`).

use crate::protocol::{
    decode, encode, read_frame, FrameError, Request, Response, DEFAULT_MAX_FRAME_BYTES,
};
use crate::service::Service;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// A running TCP frontend over a [`Service`].
///
/// A connection holds the service only while it answers a frame, so the
/// service lives exactly as long as its owners (this frontend and any
/// other [`Arc`] holder): the last owner's drop tears it down on that
/// owner's thread, and open connections close at their next frame.
pub struct TcpServer {
    service: Arc<Service>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    pub fn start(service: Arc<Service>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("relm-serve-accept".into())
                .spawn(move || accept_loop(&listener, &service, &stop))?
        };
        Ok(TcpServer {
            service,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the frontend.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stops accepting connections and joins the accept loop. Connection
    /// threads finish their in-flight request exchanges on their own.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` by poking the listener with a throwaway
        // connection; the loop re-checks the flag first thing.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, stop: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let service = Arc::downgrade(service);
        let spawned = std::thread::Builder::new()
            .name("relm-serve-conn".into())
            .spawn(move || {
                let _ = serve_connection(&stream, &service);
            });
        if spawned.is_err() {
            // Out of threads: drop the connection rather than the server.
            continue;
        }
    }
}

/// Decrements `serve.connections.open` however the connection loop exits.
struct ConnGauge(Weak<Service>);

impl Drop for ConnGauge {
    fn drop(&mut self) {
        if let Some(service) = self.0.upgrade() {
            service.obs().add("serve.connections.open", -1.0);
        }
    }
}

/// Runs the request/response loop for one connection until EOF, an
/// unrecoverable frame, an I/O error, or the service's owners dropping
/// it (see [`TcpServer`]).
fn serve_connection(stream: &TcpStream, service: &Weak<Service>) -> io::Result<()> {
    let (limit, idle_timeout) = {
        let Some(service) = service.upgrade() else {
            return Ok(());
        };
        service.obs().inc("serve.connections.accepted");
        service.obs().add("serve.connections.open", 1.0);
        let config = service.config();
        (config.max_frame_bytes, config.conn_idle_timeout)
    };
    let _gauge = ConnGauge(Weak::clone(service));
    // Read/idle bound: a client that stops sending complete frames (hung
    // process, half-open socket after a silent peer death) trips the
    // timeout instead of pinning this thread forever.
    stream.set_read_timeout(idle_timeout)?;
    // Every write is a whole frame: send it now, not after the peer's ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let frame = read_frame(&mut reader, limit);
        let Some(service) = service.upgrade() else {
            return Ok(());
        };
        let line = match frame {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                service.obs().inc("serve.conn_timeouts");
                let reply = Response::Error {
                    message: "connection idle timeout".into(),
                };
                // Best effort: the peer may be gone entirely.
                let _ = write_frame(&mut writer, encode(&reply));
                return Ok(());
            }
            other => other?,
        };
        let line = match line {
            Ok(None) => return Ok(()),
            Ok(Some(line)) => line,
            Err(err @ FrameError::Oversized { .. }) => {
                service.obs().inc("serve.rejected.oversized");
                let reply = Response::Error {
                    message: err.to_string(),
                };
                write_frame(&mut writer, encode(&reply))?;
                // The stream is mid-frame; no way back to a line boundary.
                return Ok(());
            }
            Err(err) => {
                service.obs().inc("serve.rejected.malformed");
                let reply = Response::Error {
                    message: err.to_string(),
                };
                write_frame(&mut writer, encode(&reply))?;
                continue;
            }
        };
        let response = match decode::<Request>(&line, limit) {
            Ok(request) => service.handle(&request),
            Err(err) => {
                service.obs().inc("serve.rejected.malformed");
                Response::Error {
                    message: err.to_string(),
                }
            }
        };
        // Let go before replying: a client holding its answer knows this
        // connection no longer holds the service.
        drop(service);
        write_frame(&mut writer, encode(&response))?;
    }
}

/// Writes one encoded frame plus its terminating newline in a single
/// `write_all`, then flushes. Writing the newline on its own (as
/// `writeln!` through a buffer smaller than the frame does) sends it as a
/// separate 1-byte segment, which Nagle's algorithm holds back until the
/// peer's delayed ACK arrives.
fn write_frame(writer: &mut impl Write, mut frame: String) -> io::Result<()> {
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// A blocking client for the TCP frontend: one request, one response, in
/// order, over a single connection.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpClient {
    /// Connects to a server started with [`TcpServer::start`]. Replies
    /// are decoded under [`DEFAULT_MAX_FRAME_BYTES`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, encode(request))?;
        self.read_response()
    }

    /// Sends a raw line (not necessarily a valid frame) and blocks for the
    /// server's reply. Test hook for protocol-robustness checks.
    pub fn request_raw(&mut self, line: &str) -> io::Result<Response> {
        write_frame(&mut self.writer, line.to_string())?;
        self.read_response()
    }

    /// Sends raw bytes without a newline and without waiting for a reply.
    /// Test hook for half-open/stalled-connection checks.
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one reply without buffering more than
    /// [`DEFAULT_MAX_FRAME_BYTES`] + 1 bytes: a longer line, or one that is
    /// not a frame, is `InvalidData` as soon as it is seen.
    fn read_response(&mut self) -> io::Result<Response> {
        let invalid = |e: FrameError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let line = read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES)?
            .map_err(invalid)?
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })?;
        decode(&line, DEFAULT_MAX_FRAME_BYTES).map_err(invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;
    use crate::service::ServeConfig;
    use relm_obs::Obs;

    fn start() -> TcpServer {
        let service = Arc::new(Service::start(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        ));
        TcpServer::start(service, "127.0.0.1:0").expect("bind ephemeral port")
    }

    #[test]
    fn tcp_round_trip_matches_in_process() {
        let server = start();
        let mut client = TcpClient::connect(server.addr()).unwrap();
        assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
        let session = match client
            .request(&Request::CreateSession {
                spec: SessionSpec::named("WordCount", 21),
            })
            .unwrap()
        {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        client
            .request(&Request::StepAuto {
                session: session.clone(),
                evals: 2,
            })
            .unwrap();
        let over_tcp = match client
            .request(&Request::Result {
                session: session.clone(),
            })
            .unwrap()
        {
            Response::ResultReady { history, .. } => history,
            other => panic!("result failed: {other:?}"),
        };
        // The same spec driven in-process yields the byte-identical
        // history: the transport is not part of the session's state.
        let local = Service::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        let s2 = match local.handle(&Request::CreateSession {
            spec: SessionSpec::named("WordCount", 21),
        }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        local.handle(&Request::StepAuto {
            session: s2.clone(),
            evals: 2,
        });
        let in_process = match local.handle(&Request::Result { session: s2 }) {
            Response::ResultReady { history, .. } => history,
            other => panic!("result failed: {other:?}"),
        };
        assert_eq!(
            serde_json::to_string(&over_tcp).unwrap(),
            serde_json::to_string(&in_process).unwrap()
        );
    }

    /// Accepts every byte, counting the `write` calls that carried them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_large_frame_and_its_newline_leave_in_one_write() {
        let frame = "x".repeat(20 * 1024);
        let mut writer = CountingWriter::default();
        write_frame(&mut writer, frame.clone()).unwrap();
        assert_eq!(writer.writes, 1);
        assert_eq!(writer.bytes, format!("{frame}\n").into_bytes());
    }

    #[test]
    fn dropping_the_frontend_tears_the_service_down_in_place() {
        let service = Arc::new(Service::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        ));
        let alive = Arc::downgrade(&service);
        let server = TcpServer::start(service, "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(server.addr()).unwrap();
        assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
        // The open connection does not keep the service alive: it is gone
        // when the drop returns, and the connection closes at its next
        // frame.
        drop(server);
        assert!(alive.upgrade().is_none());
        assert!(client.request(&Request::Ping).is_err());
    }

    #[test]
    fn malformed_frame_gets_error_and_connection_survives() {
        let server = start();
        let mut client = TcpClient::connect(server.addr()).unwrap();
        let reply = client.request_raw("{this is not json").unwrap();
        assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
        // Still usable afterwards.
        assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
        assert!(
            server
                .service()
                .obs()
                .counter_value("serve.rejected.malformed")
                >= 1.0
        );
    }

    #[test]
    fn deeply_nested_frame_gets_error_and_connection_survives() {
        let server = start();
        let mut client = TcpClient::connect(server.addr()).unwrap();
        for open in ["[", "{\"a\":"] {
            let reply = client.request_raw(&open.repeat(100_000)).unwrap();
            match reply {
                Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
                other => panic!("expected a malformed-frame error, got {other:?}"),
            }
            assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
        }
    }

    #[test]
    fn client_refuses_an_endless_reply_line() {
        use std::io::Write as _;
        use std::time::{Duration, Instant};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, held) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // One byte past the bound and no newline; then hold the socket
            // open for 10 s, or until the test is done.
            let _ = stream.write_all(&vec![b'x'; DEFAULT_MAX_FRAME_BYTES + 1]);
            let _ = held.recv_timeout(Duration::from_secs(10));
        });
        let mut client = TcpClient::connect(addr).unwrap();
        let started = Instant::now();
        let err = client.request(&Request::Ping).unwrap_err();
        let waited = started.elapsed();
        drop(release);
        peer.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            waited < Duration::from_secs(2),
            "the client waited {waited:?} for the peer to close"
        );
    }

    #[test]
    fn stalled_connection_times_out_instead_of_pinning_a_thread() {
        use std::time::Duration;
        let service = Arc::new(Service::start(
            ServeConfig {
                workers: 1,
                conn_idle_timeout: Some(Duration::from_millis(50)),
                ..ServeConfig::default()
            },
            Obs::enabled(),
        ));
        let server = TcpServer::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
        // A client that connects and then goes silent — never a complete
        // frame. The server must cut it loose, not wait forever.
        let mut client = TcpClient::connect(server.addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.obs().counter_value("serve.conn_timeouts") < 1.0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stalled connection was not timed out"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // The server said goodbye (an error frame and/or a close); either
        // way the next exchange cannot succeed with a Pong.
        match client.request(&Request::Ping) {
            Ok(Response::Error { message }) => assert!(message.contains("timeout"), "{message}"),
            Ok(other) => panic!("expected timeout error or close, got {other:?}"),
            Err(_) => {}
        }
        // A half-sent frame stalls the same way: bytes but no newline.
        let mut partial = TcpClient::connect(server.addr()).unwrap();
        let _ = partial.send_raw_bytes(b"{\"Ping");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.obs().counter_value("serve.conn_timeouts") < 2.0 {
            assert!(
                std::time::Instant::now() < deadline,
                "half-frame connection was not timed out"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn oversized_frame_closes_the_connection() {
        let service = Arc::new(Service::start(
            ServeConfig {
                workers: 1,
                max_frame_bytes: 256,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        ));
        let server = TcpServer::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(server.addr()).unwrap();
        let reply = client.request_raw(&"x".repeat(1024)).unwrap();
        assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
        // The server hung up: the next exchange fails.
        assert!(client.request(&Request::Ping).is_err());
        assert_eq!(service.obs().counter_value("serve.rejected.oversized"), 1.0);
    }
}
