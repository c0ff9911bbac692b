//! The yardstick: the round trip a hand-written two-thread program makes.
//!
//! This host slows the same instructions down by a third to two thirds for
//! tens of seconds to minutes at a time (README, "Method"): the code that
//! suffers is the code that crosses threads and enters the kernel, which is
//! what a small call is made of, and no run of a sensible length outlasts
//! such a phase. So a run does not report how long a call took; it reports
//! how long it took *against a yardstick measured in the same instants*: the
//! measured phase alternates, every fifth of a second, between the workload
//! and this module's round trip, which moves the same useful bytes there and
//! back over the same kind of link and does the per-byte work the workload's
//! capabilities name, with none of the ORB in between:
//!
//! * `Wire::Shm`: ownership of a byte buffer handed to an echo thread and
//!   back through a mutex and two condition variables;
//! * `Wire::TcpLoopback`: the bytes written to and read back from an echo
//!   thread over a `std::net::TcpStream` on the loopback interface;
//! * `Cap::Security`: each side enciphers before it sends and deciphers after
//!   it receives — four passes of this module's own ChaCha20 per round trip.
//!   (`Cap::Timeout` is a counter decrement; the yardstick has no twin of it.)
//!
//! It uses `std` only — no crate of the program — so a change to the program
//! cannot move it, and it never allocates after [`Yardstick::start`], so it
//! adds nothing to the allocation counts. What slows the workload slows the
//! yardstick about as much, and the ratio of the two holds still where
//! either alone does not. The paper reports capability overhead the same
//! way: against the raw transport.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::spec::{xdr_len, Cap, Wire, Workload};

/// ChaCha20 (RFC 7539) keystream XORed over `data`, block counter from 1,
/// under a fixed key and nonce. Applying it twice gives `data` back. It is
/// the harness's own, frozen copy: the yardstick must not get faster when
/// the program's cipher does.
pub fn cipher(data: &mut [u8]) {
    const KEY: [u32; 8] = [
        0x6c65_6467,
        0x6572_2d79,
        0x6172_6473,
        0x7469_636b,
        0x2d66_726f,
        0x7a65_6e2d,
        0x6b65_792d,
        0x3031_3233,
    ];
    for (counter, block) in data.chunks_mut(64).enumerate() {
        let init: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            KEY[0],
            KEY[1],
            KEY[2],
            KEY[3],
            KEY[4],
            KEY[5],
            KEY[6],
            KEY[7],
            counter as u32 + 1,
            0,
            0x4a00_0000,
            0,
        ];
        let mut x = init;
        macro_rules! quarter {
            ($a:expr, $b:expr, $c:expr, $d:expr) => {
                x[$a] = x[$a].wrapping_add(x[$b]);
                x[$d] = (x[$d] ^ x[$a]).rotate_left(16);
                x[$c] = x[$c].wrapping_add(x[$d]);
                x[$b] = (x[$b] ^ x[$c]).rotate_left(12);
                x[$a] = x[$a].wrapping_add(x[$b]);
                x[$d] = (x[$d] ^ x[$a]).rotate_left(8);
                x[$c] = x[$c].wrapping_add(x[$d]);
                x[$b] = (x[$b] ^ x[$c]).rotate_left(7);
            };
        }
        for _ in 0..10 {
            quarter!(0, 4, 8, 12);
            quarter!(1, 5, 9, 13);
            quarter!(2, 6, 10, 14);
            quarter!(3, 7, 11, 15);
            quarter!(0, 5, 10, 15);
            quarter!(1, 6, 11, 12);
            quarter!(2, 7, 8, 13);
            quarter!(3, 4, 9, 14);
        }
        for (i, chunk) in block.chunks_mut(4).enumerate() {
            let word = x[i].wrapping_add(init[i]).to_le_bytes();
            for (byte, key) in chunk.iter_mut().zip(word) {
                *byte ^= key;
            }
        }
    }
}

/// The shared-memory link: one buffer each way, handed over by ownership.
#[derive(Default)]
struct Mailbox {
    slots: Mutex<Slots>,
    for_echo: Condvar,
    for_client: Condvar,
}

#[derive(Default)]
struct Slots {
    to_echo: Option<Vec<u8>>,
    to_client: Option<Vec<u8>>,
    closed: bool,
}

impl Mailbox {
    /// Every update of the slots is one assignment, so they are valid at
    /// every step and a poisoned lock's guard can be used as it is.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

enum Link {
    Mailbox(Arc<Mailbox>),
    Tcp(TcpStream),
}

/// A running yardstick: the client end, and the echo thread it talks to.
pub struct Yardstick {
    link: Link,
    enciphered: bool,
    /// What is sent, as the application holds it.
    plain: Vec<u8>,
    /// The buffer that travels.
    wire: Vec<u8>,
    echo: Option<JoinHandle<()>>,
}

fn echo_over_mailbox(mailbox: &Mailbox, enciphered: bool) {
    let mut slots = mailbox.lock();
    loop {
        while slots.to_echo.is_none() && !slots.closed {
            slots = mailbox
                .for_echo
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let Some(mut message) = slots.to_echo.take() else {
            return; // closed
        };
        if enciphered {
            cipher(&mut message); // decipher the request
            cipher(&mut message); // encipher the reply
        }
        slots.to_client = Some(message);
        mailbox.for_client.notify_one();
    }
}

fn echo_over_tcp(listener: &TcpListener, bytes: usize, enciphered: bool) {
    let Ok((mut stream, _)) = listener.accept() else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let mut message = vec![0u8; bytes];
    while stream.read_exact(&mut message).is_ok() {
        if enciphered {
            cipher(&mut message);
            cipher(&mut message);
        }
        if stream.write_all(&message).is_err() {
            return;
        }
    }
}

impl Yardstick {
    /// The yardstick of workload `wl`: its link, its bytes, its cipher.
    pub fn for_workload(wl: &Workload) -> std::io::Result<Yardstick> {
        Yardstick::start(wl.wire, xdr_len(wl.ints), wl.caps.contains(&Cap::Security))
    }

    /// Starts the echo thread and connects to it. Everything the yardstick
    /// will ever allocate is allocated here.
    pub fn start(wire: Wire, bytes: usize, enciphered: bool) -> std::io::Result<Yardstick> {
        let plain: Vec<u8> = (0..bytes).map(|i| (i * 31 + 7) as u8).collect();
        let (link, echo) = match wire {
            Wire::Shm => {
                let mailbox = Arc::new(Mailbox::default());
                let theirs = mailbox.clone();
                let echo = std::thread::spawn(move || echo_over_mailbox(&theirs, enciphered));
                (Link::Mailbox(mailbox), echo)
            }
            Wire::TcpLoopback => {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let address = listener.local_addr()?;
                let echo = std::thread::spawn(move || echo_over_tcp(&listener, bytes, enciphered));
                let stream = TcpStream::connect(address)?;
                stream.set_nodelay(true)?;
                (Link::Tcp(stream), echo)
            }
        };
        Ok(Yardstick {
            link,
            enciphered,
            wire: plain.clone(),
            plain,
            echo: Some(echo),
        })
    }

    /// One round trip. Returns whether what came back is what was sent.
    /// Never allocates.
    pub fn round_trip(&mut self) -> bool {
        self.wire.copy_from_slice(&self.plain);
        if self.enciphered {
            cipher(&mut self.wire);
        }
        let arrived = match &mut self.link {
            Link::Mailbox(mailbox) => {
                let mut slots = mailbox.lock();
                slots.to_echo = Some(std::mem::take(&mut self.wire));
                mailbox.for_echo.notify_one();
                while slots.to_client.is_none() {
                    slots = mailbox
                        .for_client
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                self.wire = slots.to_client.take().unwrap_or_default();
                self.wire.len() == self.plain.len()
            }
            Link::Tcp(stream) => {
                stream.write_all(&self.wire).is_ok() && stream.read_exact(&mut self.wire).is_ok()
            }
        };
        if self.enciphered {
            cipher(&mut self.wire);
        }
        arrived && self.wire == self.plain
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        match &self.link {
            Link::Mailbox(mailbox) => {
                mailbox.lock().closed = true;
                mailbox.for_echo.notify_one();
            }
            Link::Tcp(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::thread_allocs;
    use crate::spec::WORKLOADS;

    #[test]
    fn cipher_twice_is_the_identity_and_no_two_blocks_share_a_keystream() {
        let plain: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut data = plain.clone();
        cipher(&mut data);
        let keystream: Vec<u8> = data.iter().zip(&plain).map(|(a, b)| a ^ b).collect();
        assert_ne!(keystream[..64], keystream[64..128]);
        assert!(keystream[..64].iter().any(|&b| b != 0));
        // A prefix enciphers the same alone as inside a longer buffer.
        let mut prefix = plain[..70].to_vec();
        cipher(&mut prefix);
        assert_eq!(prefix, data[..70]);
        cipher(&mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn every_workloads_yardstick_echoes_without_allocating() {
        for wl in &WORKLOADS {
            let small = Workload {
                ints: wl.ints.min(4096),
                ..*wl
            };
            let mut yardstick = Yardstick::for_workload(&small).expect(wl.name);
            assert!(yardstick.round_trip(), "{}", wl.name);
            let before = thread_allocs();
            for _ in 0..50 {
                assert!(yardstick.round_trip(), "{}", wl.name);
            }
            assert_eq!(thread_allocs() - before, 0, "{}", wl.name);
        }
    }

    #[test]
    fn an_enciphered_mailbox_round_trip_verifies() {
        let mut yardstick = Yardstick::start(Wire::Shm, 1000, true).expect("start");
        assert!(yardstick.round_trip());
        assert!(yardstick.round_trip());
    }
}
