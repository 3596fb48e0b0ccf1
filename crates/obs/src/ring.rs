//! Per-thread rings over a bounded central sink, shared by
//! [`mod@crate::trace`] and the `detdiv-flight` audit log.
//!
//! A `static` [`Collector`] holds the sink, its cap and the count of
//! items dropped because the sink was full. Each thread pushes into its
//! own [`ThreadRing`] (kept in a `thread_local!`): a borrow and a `Vec`
//! push, no lock. A ring reserves its capacity on first push and
//! batch-flushes into the sink when full and when dropped, keeping its
//! order. Past the cap, items are counted, never blocked on or grown.
//! Locks tolerate poisoning.
//!
//! **Scoped threads must flush before returning**: a
//! [`std::thread::scope`] can observe the closure's return before the
//! thread's TLS destructors (the drop flush) run, so the `detdiv-par`
//! workers flush explicitly at the end of their closure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The central sink one family of [`ThreadRing`]s flushes into.
#[derive(Debug)]
pub struct Collector<T> {
    sink: Mutex<Vec<T>>,
    ring_capacity: usize,
    sink_capacity: usize,
    dropped: AtomicU64,
}

impl<T> Collector<T> {
    /// An empty collector whose rings flush every `ring_capacity`
    /// items into a sink holding at most `sink_capacity`.
    pub const fn new(ring_capacity: usize, sink_capacity: usize) -> Collector<T> {
        Collector {
            sink: Mutex::new(Vec::new()),
            ring_capacity,
            sink_capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// The central sink, locked.
    pub fn sink(&self) -> MutexGuard<'_, Vec<T>> {
        self.sink.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes every flushed item out of the sink, in flush order.
    pub fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *self.sink())
    }

    /// Items dropped so far because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Empties the sink and zeroes the dropped count.
    pub fn clear(&self) {
        self.sink().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Moves `batch` into the sink, as much as fits; the rest is
    /// counted as dropped. `batch` is left empty.
    fn accept(&self, batch: &mut Vec<T>) {
        let mut sink = self.sink();
        let room = self.sink_capacity.saturating_sub(sink.len());
        if room >= batch.len() {
            sink.append(batch);
        } else {
            let overflow = (batch.len() - room) as u64;
            sink.extend(batch.drain(..room));
            batch.clear();
            self.dropped.fetch_add(overflow, Ordering::Relaxed);
        }
    }
}

/// One thread's buffer in front of a [`Collector`]; flushes when full
/// and when dropped.
#[derive(Debug)]
pub struct ThreadRing<T: 'static> {
    collector: &'static Collector<T>,
    items: Vec<T>,
}

impl<T> ThreadRing<T> {
    /// An empty ring; it allocates on first push.
    pub const fn new(collector: &'static Collector<T>) -> ThreadRing<T> {
        ThreadRing {
            collector,
            items: Vec::new(),
        }
    }

    /// Buffers `item`, flushing the ring once it holds the collector's
    /// ring capacity.
    pub fn push(&mut self, item: T) {
        if self.items.capacity() == 0 {
            self.items.reserve_exact(self.collector.ring_capacity);
        }
        self.items.push(item);
        if self.items.len() >= self.collector.ring_capacity {
            self.flush();
        }
    }

    /// Moves the buffered items into the collector's sink.
    pub fn flush(&mut self) {
        if !self.items.is_empty() {
            self.collector.accept(&mut self.items);
        }
    }

    /// Discards the buffered items without flushing them.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<T> Drop for ThreadRing<T> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    const THREADS: u32 = 3;
    const PER_THREAD: u32 = 7;

    static SMALL: Collector<(u32, u32)> = Collector::new(4, 10);
    static ROOMY: Collector<(u32, u32)> = Collector::new(4, 1_000);

    thread_local! {
        static SMALL_RING: RefCell<ThreadRing<(u32, u32)>> =
            const { RefCell::new(ThreadRing::new(&SMALL)) };
        static ROOMY_RING: RefCell<ThreadRing<(u32, u32)>> =
            const { RefCell::new(ThreadRing::new(&ROOMY)) };
    }

    /// Pushes `(thread, 0..n)` through `ring` on a fresh thread that
    /// exits without an explicit flush: only the TLS drop hands the
    /// ring's tail over.
    fn push_on_thread(
        ring: &'static std::thread::LocalKey<RefCell<ThreadRing<(u32, u32)>>>,
        thread: u32,
        n: u32,
    ) {
        std::thread::spawn(move || {
            for seq in 0..n {
                ring.with(|r| r.borrow_mut().push((thread, seq)));
            }
        })
        .join()
        .expect("pusher thread");
    }

    /// The sequence numbers `thread` landed in `sink`, in sink order.
    fn seqs_of(sink: &[(u32, u32)], thread: u32) -> Vec<u32> {
        sink.iter()
            .filter(|&&(t, _)| t == thread)
            .map(|&(_, seq)| seq)
            .collect()
    }

    #[test]
    fn overflow_accounting_is_exact_and_order_is_kept() {
        for thread in 0..THREADS {
            push_on_thread(&SMALL_RING, thread, PER_THREAD);
        }
        let accepted = u64::from(THREADS * PER_THREAD);
        let sink = SMALL.drain();
        assert_eq!(sink.len(), 10, "the sink fills to its cap, no further");
        assert_eq!(sink.len() as u64 + SMALL.dropped(), accepted);
        for thread in 0..THREADS {
            let seqs = seqs_of(&sink, thread);
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "thread {thread} out of order: {seqs:?}"
            );
        }
        SMALL.clear();
        assert_eq!(SMALL.dropped(), 0);
        assert!(SMALL.drain().is_empty());
    }

    #[test]
    fn exiting_threads_land_their_unflushed_tail() {
        // 3 items stay below the ring capacity of 4, so nothing is
        // flushed before the thread exits.
        push_on_thread(&ROOMY_RING, 7, 3);
        // 6 items: one full-ring flush of 4, then a tail of 2.
        push_on_thread(&ROOMY_RING, 8, 6);
        let sink = ROOMY.drain();
        assert_eq!(seqs_of(&sink, 7), vec![0, 1, 2]);
        assert_eq!(seqs_of(&sink, 8), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sink.len(), 9);
        assert_eq!(ROOMY.dropped(), 0);
    }
}
