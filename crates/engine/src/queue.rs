//! A sharded multi-producer/multi-consumer work queue with batched pops and
//! work stealing — the front end the serving engine feeds scans through.
//!
//! Producers round-robin pushes across shards so no single mutex serializes
//! admission; each worker preferentially drains its *home* shard in FIFO
//! order and steals from the others when idle. With one shard and one
//! worker the queue degenerates to a strict FIFO, which is what gives the
//! engine's single-threaded mode exact parity with the sequential
//! simulator.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

struct Shard<T> {
    items: Mutex<VecDeque<T>>,
    available: Condvar,
}

/// A fixed-shard MPMC queue. Unbounded; `push` never blocks.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    cursor: AtomicUsize,
    len: AtomicUsize,
    closed: AtomicBool,
}

impl<T> ShardedQueue<T> {
    /// A queue with `shards` independent lanes (at least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    items: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                })
                .collect(),
            cursor: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Items currently enqueued (racy, for monitoring).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty (racy, for monitoring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue one item on the next shard (round-robin).
    ///
    /// # Panics
    /// Panics if the queue is closed — producers must stop before close.
    pub fn push(&self, item: T) {
        assert!(!self.closed.load(Ordering::Acquire), "queue closed");
        let shard = &self.shards[self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        self.len.fetch_add(1, Ordering::Relaxed);
        let mut q = shard.items.lock().expect("queue shard poisoned");
        q.push_back(item);
        drop(q);
        shard.available.notify_one();
    }

    /// Dequeue up to `max` items, preferring the `home` shard and stealing
    /// from the others when it is empty. Blocks while the queue is open and
    /// empty; returns `None` once the queue is closed *and* fully drained.
    pub fn pop_batch(&self, home: usize, max: usize) -> Option<Vec<T>> {
        let max = max.max(1);
        let n = self.shards.len();
        loop {
            // Home shard first (FIFO within a shard), then steal.
            for i in 0..n {
                let shard = &self.shards[(home + i) % n];
                let mut q = shard.items.lock().expect("queue shard poisoned");
                if !q.is_empty() {
                    let take = max.min(q.len());
                    let batch: Vec<T> = q.drain(..take).collect();
                    drop(q);
                    self.len.fetch_sub(batch.len(), Ordering::Relaxed);
                    return Some(batch);
                }
            }
            if self.closed.load(Ordering::Acquire) && self.is_empty() {
                return None;
            }
            // Park on the home shard; the timeout re-checks the steal lanes
            // and the closed flag (a single condvar cannot observe pushes
            // that landed on sibling shards).
            let shard = &self.shards[home % n];
            let guard = shard.items.lock().expect("queue shard poisoned");
            let _unused = shard
                .available
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("queue shard poisoned");
        }
    }

    /// Close the queue: wake all waiters; `pop_batch` returns `None` once
    /// the remaining items drain.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_shard_is_fifo() {
        let q = ShardedQueue::new(1);
        for i in 0..10 {
            q.push(i);
        }
        q.close();
        let mut got = Vec::new();
        while let Some(batch) = q.pop_batch(0, 3) {
            got.extend(batch);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_spreads_across_shards() {
        let q = ShardedQueue::new(4);
        for i in 0..8 {
            q.push(i);
        }
        assert_eq!(q.len(), 8);
        // each shard holds exactly 2 items
        for home in 0..4 {
            let batch = q.pop_batch(home, 2).unwrap();
            assert_eq!(batch.len(), 2);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn stealing_drains_foreign_shards() {
        let q = ShardedQueue::new(4);
        for i in 0..12 {
            q.push(i);
        }
        q.close();
        // a single consumer homed on shard 0 still sees everything
        let mut got = Vec::new();
        while let Some(batch) = q.pop_batch(0, 64) {
            got.extend(batch);
        }
        got.sort_unstable();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = Arc::new(ShardedQueue::new(3));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        q.push(p * 1_000_000 + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|home| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = q.pop_batch(home, 16) {
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        assert_eq!(all.len(), 2_000);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2_000, "duplicated or lost items");
    }

    #[test]
    fn pop_on_closed_empty_queue_returns_none() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2);
        q.close();
        assert!(q.pop_batch(0, 8).is_none());
    }
}
