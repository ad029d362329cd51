//! Property test of the bounded batch queue under concurrency.
//!
//! Each case draws a capacity (1–64), one to three producer threads and,
//! per producer, a script of sends: batches of size 0, below the cap,
//! exactly the cap and far above it, interleaved with single blocking
//! sends and single `try_send`s (falling back to a blocking send when
//! the queue is full). One consumer drains with a random `max`. Every
//! item must arrive exactly once and in its producer's order, every
//! receive must hand out non-empty batches whose sizes add up to the
//! count it returns, and the depth must never pass the cap.

use std::thread;
use std::time::Duration;

use longsynth_ingest::{bounded, RecvResult, TrySendError};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Batch(usize),
    Send,
    TrySend,
}

/// One send against a queue of capacity `cap`, from a drawn kind and
/// word: an empty batch, a batch below, at or far above the cap (up to
/// ten times it), or a single blocking or non-blocking send.
fn op(cap: usize, (kind, word): (u8, u64)) -> Op {
    let word = word as usize;
    match kind {
        0 => Op::Batch(0),
        1 => Op::Batch(word % cap),
        2 => Op::Batch(cap),
        3 => Op::Batch(cap + 1 + word % (9 * cap)),
        4 => Op::Send,
        _ => Op::TrySend,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_item_arrives_once_in_producer_order_under_the_cap(
        cap in 1usize..=64,
        drawn in collection::vec(collection::vec((0u8..6, any::<u64>()), 0..12), 1..=3),
        max in 1usize..=128,
    ) {
        let scripts: Vec<Vec<Op>> = drawn
            .iter()
            .map(|script| script.iter().map(|&d| op(cap, d)).collect())
            .collect();
        let (tx, rx) = bounded::<(usize, u32)>(cap, None);
        let mut sent = Vec::new();
        let mut handles = Vec::new();
        for (p, script) in scripts.into_iter().enumerate() {
            let tx = tx.clone();
            let total: usize = script
                .iter()
                .map(|op| match op {
                    Op::Batch(size) => *size,
                    Op::Send | Op::TrySend => 1,
                })
                .sum();
            sent.push(total as u32);
            handles.push(thread::spawn(move || {
                let mut seq = 0u32;
                let mut next = || {
                    seq += 1;
                    (p, seq - 1)
                };
                for op in script {
                    match op {
                        Op::Batch(size) => {
                            let batch = (0..size).map(|_| next()).collect();
                            tx.send_batch(batch).unwrap();
                        }
                        Op::Send => tx.send(next()).unwrap(),
                        Op::TrySend => match tx.try_send(next()) {
                            Ok(()) => {}
                            Err(TrySendError::Full(item)) => tx.send(item).unwrap(),
                            Err(TrySendError::Closed(_)) => panic!("consumer is open"),
                        },
                    }
                }
            }));
        }
        drop(tx);

        let mut received = vec![Vec::new(); sent.len()];
        loop {
            let mut out = Vec::new();
            match rx.recv_many(&mut out, max, Duration::from_millis(10)) {
                RecvResult::Received(n) => {
                    prop_assert!(out.iter().all(|batch| !batch.is_empty()));
                    prop_assert_eq!(out.iter().map(Vec::len).sum::<usize>(), n);
                    for (p, seq) in out.into_iter().flatten() {
                        received[p].push(seq);
                    }
                }
                RecvResult::TimedOut => {}
                RecvResult::Closed => break,
            }
            prop_assert!(rx.depth() <= cap);
        }
        for handle in handles {
            handle.join().unwrap();
        }

        for (p, got) in received.iter().enumerate() {
            prop_assert_eq!(got, &(0..sent[p]).collect::<Vec<_>>(), "producer {}", p);
        }
        prop_assert!(rx.peak_depth() <= cap, "peak {} over cap {}", rx.peak_depth(), cap);
        prop_assert_eq!(rx.depth(), 0);
    }
}
