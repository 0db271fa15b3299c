//! The generator's TCP client endpoint: the same framing as
//! `smr_net::tcp::TcpClientEndpoint`, but it waits for replies with
//! `ppoll`, which sleeps to the nanosecond. The crate's endpoint waits
//! through `SO_RCVTIMEO`, which the kernel rounds up to a scheduler tick
//! (1-10 ms), so an open-loop generator on it sends up to a tick late.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use smr_net::{ClientEndpoint, NetError};
use smr_wire::{Frame, FrameDecoder};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Blocks until `fd` is ready for `events` or `timeout` passes.
fn wait(fd: i32, events: i16, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the whole call; `nfds` is 1, and a
    // null signal mask leaves the mask unchanged. An error return (EINTR)
    // only ends the wait early, which callers tolerate.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

pub struct PolledTcp {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl PolledTcp {
    pub fn connect(addr: SocketAddr) -> Result<Self, NetError> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(PolledTcp {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 64 * 1024],
        })
    }
}

impl ClientEndpoint for PolledTcp {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        let wire = Frame::encode_to_vec(&frame);
        let mut off = 0;
        while off < wire.len() {
            match self.stream.write(&wire[off..]) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    wait(self.stream.as_raw_fd(), POLLOUT, Duration::from_millis(1));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self
                .decoder
                .next_frame()
                .map_err(|e| NetError::BadFrame(e.to_string()))?
            {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => {
                    self.decoder.extend(&self.buf[..n]);
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            wait(self.stream.as_raw_fd(), POLLIN, remaining);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        let mut ep = PolledTcp::connect(addr).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_micros(300)).unwrap(), None);
        ep.send(b"hello".to_vec()).unwrap();
        let got = ep.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.as_deref(), Some(&b"hello"[..]));
        echo.join().unwrap();
    }
}
