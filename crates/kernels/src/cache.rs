//! Cache flushing between timed repetitions.
//!
//! The paper's methodology (Section 3.4) flushes the cache prior to each
//! repetition so that every algorithm starts from a cold cache and the
//! *inter-kernel* cache effects within an algorithm are isolated from
//! *inter-repetition* effects. [`CacheFlusher`] reproduces that by streaming
//! through a buffer larger than any realistic last-level cache.
//!
//! What a flush guarantees: every element of the buffer is read, incremented
//! and written back (so every one of its cache lines is brought in and
//! dirtied, displacing whatever the previous repetition left behind), and the
//! returned checksum is the exact sum of the updated buffer. A flush runs
//! before *every* repetition of *every* measurement, so it must cost what the
//! memory system charges for one pass and no more: the sum is kept in
//! 16 independent accumulators (`LANES`), because a single one chains every
//! addition behind the previous one and the loop then runs at floating-point
//! add latency — about half the speed of the memory it is meant to sweep
//! (8 MiB: 0.73 ms against 0.34 ms; 64 MiB: 9.5–11.8 ms against 3.0 ms).

use std::hint::black_box;

/// Default flush buffer size: 64 MiB, comfortably larger than the LLC of the
/// Xeon Silver 4210 used in the paper (14 MiB) and of most desktop parts.
pub const DEFAULT_FLUSH_BYTES: usize = 64 * 1024 * 1024;

/// Independent partial sums a flush accumulates into: enough that the
/// additions of neighbouring elements never wait for each other (two 512-bit
/// or four 256-bit vectors of `f64`), which lets the compiler vectorise the
/// pass and leaves memory bandwidth as its only limit.
const LANES: usize = 16;

/// Evicts cached data by reading and writing a large private buffer.
///
/// The buffer is allocated by the first [`flush`](CacheFlusher::flush), so a
/// flusher that never times anything costs no memory.
#[derive(Debug)]
pub struct CacheFlusher {
    len: usize,
    buf: Vec<f64>,
    counter: u64,
}

impl CacheFlusher {
    /// Create a flusher with a buffer of approximately `bytes` bytes.
    #[must_use]
    pub fn new(bytes: usize) -> Self {
        CacheFlusher {
            len: (bytes / std::mem::size_of::<f64>()).max(1),
            buf: Vec::new(),
            counter: 0,
        }
    }

    /// Create a flusher with the default 64 MiB buffer.
    #[must_use]
    pub fn with_default_size() -> Self {
        CacheFlusher::new(DEFAULT_FLUSH_BYTES)
    }

    /// Size of the flush buffer in bytes (as configured: the buffer itself
    /// exists from the first flush on).
    #[must_use]
    pub fn buffer_bytes(&self) -> usize {
        self.len * std::mem::size_of::<f64>()
    }

    /// Stream through the buffer so its cache lines evict previously cached
    /// operand data: every element is read, incremented and written back, at
    /// the rate the memory system sustains (see the module docs for why the
    /// sum is split over `LANES` accumulators). Returns the sum of the
    /// updated buffer to keep the optimiser honest; the buffer only ever
    /// holds small whole numbers, so that sum is exact whatever the order of
    /// the additions.
    pub fn flush(&mut self) -> f64 {
        if self.buf.len() != self.len {
            self.buf = vec![0.0; self.len];
        }
        self.counter = self.counter.wrapping_add(1);
        let inc = (self.counter % 7) as f64 + 1.0;
        let mut lanes = [0.0; LANES];
        let mut chunks = self.buf.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            for (x, lane) in chunk.iter_mut().zip(&mut lanes) {
                *x += inc;
                *lane += *x;
            }
        }
        let mut sum: f64 = lanes.iter().sum();
        for x in chunks.into_remainder() {
            *x += inc;
            sum += *x;
        }
        black_box(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The single-accumulator pass `flush` replaced: the reference the laned
    /// one must agree with to the bit, and the speed it must beat.
    fn scalar_flush(buf: &mut [f64], inc: f64) -> f64 {
        let mut sum = 0.0;
        for x in buf {
            *x += inc;
            sum += *x;
        }
        black_box(sum)
    }

    /// A flusher of exactly `len` elements (`new` never goes below one).
    fn with_len(len: usize) -> CacheFlusher {
        CacheFlusher {
            len,
            buf: Vec::new(),
            counter: 0,
        }
    }

    #[test]
    fn flusher_has_requested_size() {
        let f = CacheFlusher::new(8 * 1024);
        assert_eq!(f.buffer_bytes(), 8 * 1024);
    }

    #[test]
    fn flush_touches_every_element() {
        let mut f = CacheFlusher::new(1024);
        let s1 = f.flush();
        let s2 = f.flush();
        // The buffer contents change between flushes, so the checksums differ.
        assert_ne!(s1, s2);
        assert!(f.buf.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn tiny_buffer_still_works() {
        let mut f = CacheFlusher::new(0);
        assert!(f.buffer_bytes() >= std::mem::size_of::<f64>());
        let _ = f.flush();
    }

    #[test]
    fn the_buffer_is_allocated_by_the_first_flush() {
        let mut f = CacheFlusher::new(4096);
        assert_eq!(f.buf.capacity(), 0);
        assert_eq!(f.buffer_bytes(), 4096);
        f.flush();
        assert_eq!(f.buf.len() * std::mem::size_of::<f64>(), 4096);
        let first = f.buf.as_ptr();
        f.flush();
        assert_eq!(f.buf.as_ptr(), first, "later flushes reuse the buffer");
        assert_eq!(f.buffer_bytes(), 4096);
    }

    #[test]
    fn every_element_and_the_checksum_are_exact_at_every_length() {
        for len in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3, 8 * 1024] {
            for flushes in [1_u64, 2, 9] {
                let mut f = with_len(len);
                let mut reference = vec![0.0; len];
                let mut applied = 0.0;
                let mut checksums = Vec::new();
                for k in 1..=flushes {
                    let inc = (k % 7) as f64 + 1.0;
                    applied += inc;
                    let sum = f.flush();
                    let expected = scalar_flush(&mut reference, inc);
                    assert_eq!(sum.to_bits(), expected.to_bits(), "len {len}, flush {k}");
                    assert_eq!(sum, len as f64 * applied, "len {len}, flush {k}");
                    checksums.push(sum);
                }
                assert_eq!(f.buf.len(), len);
                assert!(f.buf.iter().all(|&x| x == applied), "len {len}");
                assert_eq!(f.buf, reference);
                if len > 0 {
                    assert!(checksums.windows(2).all(|w| w[0] != w[1]), "len {len}");
                }
            }
        }
    }

    /// Guard against a single accumulator growing back: a ratio of minima
    /// taken in one process, so a slow runner slows both sides alike.
    /// Release mode only (CI runs it with `--release -- --ignored`).
    #[test]
    #[ignore = "timing ratio: run in release mode"]
    fn flush_is_not_a_serial_chain() {
        let mut f = CacheFlusher::new(8 * 1024 * 1024);
        f.flush();
        let min_of_five = |pass: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    pass();
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let laned = min_of_five(&mut || {
            f.flush();
        });
        let scalar = min_of_five(&mut || {
            scalar_flush(&mut f.buf, 1.0);
        });
        assert!(
            scalar >= 1.3 * laned,
            "flush {:.3} ms against the scalar chain's {:.3} ms: under 1.3x",
            laned * 1e3,
            scalar * 1e3
        );
    }
}
