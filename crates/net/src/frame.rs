//! Streaming frame assembly and batched outbound queues.
//!
//! The one framing implementation under every socket transport. The
//! reactor drains everything a readiness event promises into a reusable
//! buffer and feeds it to a [`FrameAssembler`], which peels off *every*
//! complete length-prefixed frame — frame coalescing: many frames per
//! `read` syscall, with partial frames (even a split length prefix)
//! carried over to the next chunk byte-for-byte. The node's blocking
//! transport ([`crate::tcp`]) reads straight into the assembler's own
//! buffer ([`FrameAssembler::recv_buf`]) and borrows each frame out of
//! it ([`FrameAssembler::next_frame_ref`]).
//!
//! The write side mirrors it: [`OutQueue`] takes ownership of the
//! `Vec<u8>` frames the [`crate::wire`] encoders return, keeps their
//! 4-byte prefixes beside them, and lays the whole backlog out as an
//! iovec list for one `writev` — scatter-gather: many frames per
//! syscall, zero copies into a staging buffer, and the iovec storage is
//! reused across rounds so steady-state flushing does not allocate per
//! frame.
//! The node transport sends each frame through the same queue, so
//! prefix and payload leave in one segment there too.

use std::collections::VecDeque;

use crate::wire::{check_frame_len, frame_len_prefix, WireError};

/// Incremental decoder for length-prefixed frames over arbitrary byte
/// chunks.
///
/// Feed it whatever the transport read — any split point is fine,
/// including mid-length-prefix — and pull complete frames with
/// [`FrameAssembler::next_frame`]. Length prefixes are validated
/// against [`crate::wire::MAX_FRAME_LEN`] *before* any payload
/// allocation, so a corrupt prefix surfaces as
/// [`WireError::Oversized`] instead of an OOM.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Unconsumed bytes: at most one partial frame plus whatever whole
    /// frames arrived in the last chunk.
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away
    /// opportunistically instead of on every frame.
    pos: usize,
}

/// Smallest read a transport offers the kernel through
/// [`FrameAssembler::recv_buf`].
const MIN_READ: usize = 4096;
/// Most that one advertised length reserves ahead of its bytes; a
/// longer frame grows the buffer as it actually arrives.
const MAX_RESERVE: usize = 1 << 20;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one chunk of raw transport bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// The buffer itself, for a transport that reads into it directly:
    /// appending to it is [`FrameAssembler::feed`] without the staging
    /// copy. It comes back with spare capacity sized to the traffic —
    /// the rest of the frame whose prefix already arrived, so a large
    /// frame completes in one more read, and never less than a 4 KiB
    /// floor; the capacity, never zeroed, stays at the largest frame
    /// seen. Callers only append.
    pub fn recv_buf(&mut self) -> &mut Vec<u8> {
        self.compact();
        let rest = self.prefix().map_or(0, |len| {
            (4 + len as usize).saturating_sub(self.pending_bytes())
        });
        self.buf.reserve(rest.clamp(MIN_READ, MAX_RESERVE));
        &mut self.buf
    }

    /// The next frame's length prefix, unvalidated, once all four of
    /// its bytes are buffered.
    fn prefix(&self) -> Option<u32> {
        match self.buf[self.pos..] {
            [a, b, c, d, ..] => Some(u32::from_le_bytes([a, b, c, d])),
            _ => None,
        }
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Payload length of the next frame when all of it is buffered.
    pub(crate) fn ready_len(&self) -> Result<Option<usize>, WireError> {
        let Some(len) = self.prefix() else {
            return Ok(None);
        };
        let n = check_frame_len(len)?;
        Ok((self.pending_bytes() >= 4 + n).then_some(n))
    }

    /// Pop the next complete frame payload (the length prefix is
    /// stripped), `Ok(None)` when more bytes are needed. An empty
    /// payload is returned as an empty `Vec`, which no wire decoder
    /// accepts.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// [`FrameAssembler::next_frame`] without the copy: the payload is
    /// borrowed from the buffer, valid until the next call that takes
    /// `&mut self`.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(n) = self.ready_len()? else {
            return Ok(None);
        };
        let start = self.pos + 4;
        self.pos = start + n;
        Ok(Some(&self.buf[start..self.pos]))
    }

    /// Drop consumed bytes once they dominate the buffer, keeping the
    /// amortized cost of `feed` linear.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// A raw scatter-gather segment, layout-compatible with `struct iovec`
/// (`iov_base`, `iov_len`) so a slice of these can be handed to the
/// `writev` syscall directly.
///
/// Safety contract: an `IoVec` is only valid while the memory it points
/// into is alive and unmoved. [`OutQueue`] upholds this by building the
/// list immediately before the write call and clearing it immediately
/// after, while the owning queue entries are untouched.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct IoVec {
    /// Segment base pointer (`iovec.iov_base`).
    pub base: *const u8,
    /// Segment length (`iovec.iov_len`).
    pub len: usize,
}

impl IoVec {
    fn of(slice: &[u8]) -> Self {
        Self {
            base: slice.as_ptr(),
            len: slice.len(),
        }
    }
}

// An IoVec is a dumb pointer+len pair; the OutQueue that owns the
// pointed-to frames is what actually moves between threads.
unsafe impl Send for IoVec {}

/// One queued outbound frame: its 4-byte length prefix (stored inline
/// so no prefixed copy of the payload is ever made) and the encoded
/// payload.
#[derive(Debug)]
struct OutFrame {
    prefix: [u8; 4],
    payload: Vec<u8>,
    /// Bytes of `prefix ++ payload` already written (partial writev).
    sent: usize,
}

impl OutFrame {
    fn total(&self) -> usize {
        4 + self.payload.len()
    }
}

/// Bounded outbound frame queue with iovec batching.
///
/// `push` rejects frames once `max_frames` are queued — the transport
/// surfaces that as backpressure instead of buffering without bound.
/// `fill_iovecs` lays out every unsent byte as scatter-gather segments
/// (reusing one `Vec<IoVec>` allocation across rounds);
/// `advance(n)` consumes `n` written bytes, handling partial writes
/// that stop mid-prefix or mid-payload.
#[derive(Debug)]
pub struct OutQueue {
    frames: VecDeque<OutFrame>,
    iovecs: Vec<IoVec>,
    max_frames: usize,
    queued_bytes: usize,
}

impl OutQueue {
    /// A queue admitting at most `max_frames` in-flight frames.
    pub fn new(max_frames: usize) -> Self {
        Self {
            frames: VecDeque::new(),
            iovecs: Vec::new(),
            max_frames,
            queued_bytes: 0,
        }
    }

    /// Queue one encoded frame payload. `Err(payload)` hands the frame
    /// back when the queue is at its bound (backpressure); a payload
    /// over the wire cap is a [`WireError::Oversized`] bug upstream and
    /// panics in debug builds, but is refused (returned) here too.
    pub fn push(&mut self, payload: Vec<u8>) -> Result<(), Vec<u8>> {
        if self.frames.len() >= self.max_frames {
            return Err(payload);
        }
        let prefix = match frame_len_prefix(payload.len()) {
            Ok(len) => len.to_le_bytes(),
            Err(_) => {
                debug_assert!(false, "oversized frame reached the out queue");
                return Err(payload);
            }
        };
        self.queued_bytes += 4 + payload.len();
        self.frames.push_back(OutFrame {
            prefix,
            payload,
            sent: 0,
        });
        Ok(())
    }

    /// Queued frames not yet fully written.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unsent byte total across the queue (prefixes included).
    pub fn pending_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// `true` when another `push` would be refused.
    pub fn is_saturated(&self) -> bool {
        self.frames.len() >= self.max_frames
    }

    /// Lay every unsent byte out as iovec segments and run `write` over
    /// the list; consume however many bytes it reports written. The
    /// segment list borrows the queued frames only for the duration of
    /// the call and its storage is reused across calls.
    pub fn flush_with<E>(
        &mut self,
        mut write: impl FnMut(&[IoVec]) -> Result<usize, E>,
    ) -> Result<usize, E> {
        if self.frames.is_empty() {
            return Ok(0);
        }
        self.iovecs.clear();
        for f in &self.frames {
            if f.sent < 4 {
                self.iovecs.push(IoVec::of(&f.prefix[f.sent..]));
                self.iovecs.push(IoVec::of(&f.payload));
            } else if f.sent < f.total() {
                self.iovecs.push(IoVec::of(&f.payload[f.sent - 4..]));
            }
        }
        let written = match write(&self.iovecs) {
            Ok(n) => n,
            Err(e) => {
                self.iovecs.clear();
                return Err(e);
            }
        };
        self.iovecs.clear();
        self.advance(written);
        Ok(written)
    }

    /// Consume `n` written bytes from the front of the queue.
    fn advance(&mut self, mut n: usize) {
        self.queued_bytes -= n.min(self.queued_bytes);
        while n > 0 {
            let Some(front) = self.frames.front_mut() else {
                debug_assert!(false, "advanced past the queue");
                return;
            };
            let remaining = front.total() - front.sent;
            if n >= remaining {
                n -= remaining;
                self.frames.pop_front();
            } else {
                front.sent += n;
                n = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefixed(payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn assembles_across_arbitrary_splits() {
        let frames: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![9; 300]];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&prefixed(f));
        }
        // Feed one byte at a time: every split point, including inside
        // every length prefix.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.feed(&[b]);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut asm = FrameAssembler::new();
        asm.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn out_queue_batches_and_handles_partial_writes() {
        let mut q = OutQueue::new(8);
        q.push(vec![1u8, 2, 3]).unwrap();
        q.push(vec![4u8; 10]).unwrap();
        assert_eq!(q.pending_bytes(), (4 + 3) + (4 + 10));

        // First flush: the "kernel" takes 5 bytes — the whole first
        // prefix plus one payload byte... no: 4 prefix + 1 payload.
        let n = q
            .flush_with(|iov| {
                assert_eq!(iov.len(), 4, "two frames, prefix+payload each");
                Ok::<usize, ()>(5)
            })
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pending_bytes(), 2 + (4 + 10));

        // Second flush resumes mid-frame: first segment is the 2
        // remaining payload bytes of frame one.
        let mut seen = Vec::new();
        q.flush_with(|iov| {
            for v in iov {
                seen.push(unsafe { std::slice::from_raw_parts(v.base, v.len) }.to_vec());
            }
            Ok::<usize, ()>(iov.iter().map(|v| v.len).sum())
        })
        .unwrap();
        assert_eq!(seen[0], vec![2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
    }

    #[test]
    fn out_queue_bound_is_backpressure() {
        let mut q = OutQueue::new(2);
        q.push(vec![0u8]).unwrap();
        q.push(vec![1u8]).unwrap();
        assert!(q.is_saturated());
        let refused = q.push(vec![2u8]).unwrap_err();
        assert_eq!(&refused[..], &[2u8]);
        // Draining reopens the queue.
        q.flush_with(|iov| Ok::<usize, ()>(iov.iter().map(|v| v.len).sum()))
            .unwrap();
        assert!(!q.is_saturated());
        q.push(vec![2u8]).unwrap();
    }

    #[test]
    fn roundtrip_through_assembler() {
        // writev output fed back into an assembler reproduces the frame
        // sequence — the two halves agree on the framing.
        let payloads: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; i * 7]).collect();
        let mut q = OutQueue::new(64);
        for p in &payloads {
            q.push(p.clone()).unwrap();
        }
        let mut wire = Vec::new();
        while !q.is_empty() {
            // Take 11 bytes per "syscall" to force partial writes.
            q.flush_with(|iov| {
                let mut budget = 11usize;
                for v in iov {
                    let take = v.len.min(budget);
                    wire.extend_from_slice(unsafe {
                        std::slice::from_raw_parts(v.base, take)
                    });
                    budget -= take;
                    if budget == 0 {
                        break;
                    }
                }
                Ok::<usize, ()>(11.min(iov.iter().map(|v| v.len).sum()))
            })
            .unwrap();
        }
        let mut asm = FrameAssembler::new();
        asm.feed(&wire);
        let mut got = Vec::new();
        while let Some(f) = asm.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, payloads);
    }
}
