//! A counting wrapper around the system allocator, so the traced run can
//! measure the heap bytes one service holds. Counting is off unless a
//! [`LiveBytes`] probe is active; the untraced run pays one relaxed load
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics that never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ON.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && ON.load(Ordering::Relaxed) {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

/// Net heap bytes allocated between [`LiveBytes::start`] and
/// [`LiveBytes::stop`]. Blocks allocated before the probe and freed
/// during it count negatively, so keep the measured region's inputs
/// allocated throughout.
#[derive(Debug)]
pub struct LiveBytes(());

impl LiveBytes {
    pub fn start() -> LiveBytes {
        LIVE.store(0, Ordering::Relaxed);
        ON.store(true, Ordering::Relaxed);
        LiveBytes(())
    }

    pub fn stop(self) -> i64 {
        ON.store(false, Ordering::Relaxed);
        LIVE.load(Ordering::Relaxed)
    }
}
