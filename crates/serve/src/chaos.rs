//! Seeded network fault injection against a running `cold-serve`.
//!
//! The soak tests and `chaos_client` load generator drive these faults at
//! a live server socket to prove the robustness claims the transport
//! layer makes: a misbehaving peer costs the server *one connection*,
//! never a thread, never a byte of unbounded buffering, and never a
//! healthy client's response. All randomness comes from a caller-seeded
//! RNG — the same seeded-fault-class discipline `cold-replay::fault`
//! uses — so every chaotic run replays from its recorded seed.
//!
//! One fault family is a deliberate *server cooperation* hook rather than
//! raw socket abuse: [`Fault::HandlerPanic`] hits `/chaos/panic`
//! (available when the server runs with chaos endpoints enabled) to
//! exercise the event loop's per-request `catch_unwind`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Every chaos socket gets bounded timeouts: the *injector* must never
/// hang either, or a harness bug looks like a server bug.
const CHAOS_TIMEOUT: Duration = Duration::from_secs(5);

/// The injectable fault families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Send part of a valid request, then close abruptly mid-request.
    ResetMidRequest,
    /// Send a few header bytes, stall, then vanish (slowloris read).
    StalledRead,
    /// Declare a body length, deliver only part of it, then close.
    PartialWrite,
    /// Send random garbage that never parses as HTTP.
    Garbage,
    /// Send a valid request but never read the response (stalled write
    /// side), then close with the response unread.
    SlowReader,
    /// `POST /chaos/panic`: panic inside the handler; the event loop's
    /// `catch_unwind` must contain it to this one connection.
    HandlerPanic,
}

impl Fault {
    /// The purely network-level faults — safe against any server, no
    /// chaos endpoints required.
    pub const NETWORK: [Fault; 5] = [
        Fault::ResetMidRequest,
        Fault::StalledRead,
        Fault::PartialWrite,
        Fault::Garbage,
        Fault::SlowReader,
    ];

    /// Stable name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Fault::ResetMidRequest => "reset-mid-request",
            Fault::StalledRead => "stalled-read",
            Fault::PartialWrite => "partial-write",
            Fault::Garbage => "garbage",
            Fault::SlowReader => "slow-reader",
            Fault::HandlerPanic => "handler-panic",
        }
    }
}

/// A seeded, replayable schedule of faults.
pub struct ChaosPlan {
    rng: SmallRng,
    /// How long stall-style faults hold the socket open.
    pub stall: Duration,
}

impl ChaosPlan {
    /// A plan whose entire fault stream derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            stall: Duration::from_millis(300),
        }
    }

    /// Draw the next network-level fault from the seeded stream.
    pub fn next_fault(&mut self) -> Fault {
        Fault::NETWORK[self.rng.gen_range(0..Fault::NETWORK.len())]
    }

    /// Run one fault against `addr`. I/O errors are the *expected*
    /// outcome of abusing a socket (the server resets it, times it out,
    /// or closes it) and are swallowed; only the injection happens here,
    /// the assertions live in the harness.
    pub fn run(&mut self, addr: SocketAddr, fault: Fault) {
        let _ = run_fault(addr, fault, &mut self.rng, self.stall);
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CHAOS_TIMEOUT)?;
    stream.set_read_timeout(Some(CHAOS_TIMEOUT))?;
    stream.set_write_timeout(Some(CHAOS_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn predict_request(body_len_lie: Option<usize>, body: &str) -> String {
    let declared = body_len_lie.unwrap_or(body.len());
    format!(
        "POST /predict HTTP/1.1\r\nhost: chaos\r\ncontent-type: application/json\r\ncontent-length: {declared}\r\n\r\n{body}"
    )
}

/// Execute one fault against `addr`, drawing any needed randomness from
/// `rng`. Returns `Ok` even when the server (correctly) slams the door.
pub fn run_fault(
    addr: SocketAddr,
    fault: Fault,
    rng: &mut SmallRng,
    stall: Duration,
) -> std::io::Result<()> {
    match fault {
        Fault::ResetMidRequest => {
            let mut stream = connect(addr)?;
            let request = predict_request(None, "{\"publisher\":0,\"consumer\":1}");
            let cut = rng.gen_range(1..request.len());
            stream.write_all(&request.as_bytes()[..cut])?;
            stream.flush()?;
            // Drop without finishing: the server sees a truncated
            // request and must free the slot.
        }
        Fault::StalledRead => {
            let mut stream = connect(addr)?;
            stream.write_all(b"POST /pre")?;
            stream.flush()?;
            // Hold the half-request open: the armed request clock (or
            // shutdown) must reclaim the connection.
            std::thread::sleep(stall);
        }
        Fault::PartialWrite => {
            let mut stream = connect(addr)?;
            let body = "{\"publisher\":0,\"consumer\":1}";
            let lie = body.len() + rng.gen_range(8..64usize);
            stream.write_all(predict_request(Some(lie), body).as_bytes())?;
            stream.flush()?;
            std::thread::sleep(stall.min(Duration::from_millis(50)));
            // Close with the declared body short: a clean 408/timeout on
            // the server side, never a wedge.
        }
        Fault::Garbage => {
            let mut stream = connect(addr)?;
            let mut junk = vec![0u8; rng.gen_range(16..256usize)];
            for b in &mut junk {
                *b = rng.gen_range(0..256u32) as u8;
            }
            stream.write_all(&junk)?;
            stream.flush()?;
            // Read whatever the server says (likely a 400) and go away.
            let mut sink = [0u8; 512];
            let _ = stream.read(&mut sink);
        }
        Fault::SlowReader => {
            let mut stream = connect(addr)?;
            stream
                .write_all(predict_request(None, "{\"publisher\":0,\"consumer\":1}").as_bytes())?;
            stream.flush()?;
            // Never read the response; the server's write either lands
            // in the kernel buffer or hits its write timeout.
            std::thread::sleep(stall);
        }
        Fault::HandlerPanic => {
            let mut stream = connect(addr)?;
            stream.write_all(
                b"POST /chaos/panic HTTP/1.1\r\nhost: chaos\r\ncontent-length: 0\r\n\r\n",
            )?;
            stream.flush()?;
            // The panic is caught; the loop answers 500 and closes, or
            // just closes. Either way the read terminates.
            let mut sink = [0u8; 512];
            let _ = stream.read(&mut sink);
        }
    }
    Ok(())
}
