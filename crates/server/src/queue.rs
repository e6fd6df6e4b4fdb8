//! A blocking multi-producer multi-consumer queue.
//!
//! `std::sync::mpsc` has one consumer; the two places where a pool of
//! workers shares a receiver — the threaded core's accepted-connection
//! queue and the event core's job queue — use this instead. Each half is
//! handed out in an `Arc`, which does the counting: `recv` returns `None`
//! once the queue is empty and the last sender handle is gone (that is how
//! worker pools drain without a poison message), and `send` hands the item
//! back once the last receiver handle is.

use mws_obs::sync::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

struct Shared<T> {
    state: Mutex<State<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
}

/// The sending half; `send` blocks while `cap` items are queued. Producers
/// share it behind an `Arc`.
pub(crate) struct Sender<T>(Arc<Shared<T>>);

/// The receiving half. Consumers share it behind an `Arc` and compete for
/// items.
pub(crate) struct Receiver<T>(Arc<Shared<T>>);

/// A queue holding at most `cap` items (`usize::MAX`: unbounded).
pub(crate) fn channel<T>(cap: usize) -> (Arc<Sender<T>>, Arc<Receiver<T>>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            items: VecDeque::new(),
            sender_alive: true,
            receiver_alive: true,
        }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Arc::new(Sender(shared.clone())), Arc::new(Receiver(shared)))
}

impl<T> Sender<T> {
    pub(crate) fn send(&self, item: T) -> Result<(), T> {
        let mut state = lock(&self.0.state);
        while state.receiver_alive && state.items.len() >= self.0.cap {
            state = self
                .0
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !state.receiver_alive {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.0.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    pub(crate) fn recv(&self) -> Option<T> {
        let mut state = lock(&self.0.state);
        while state.items.is_empty() && state.sender_alive {
            state = self
                .0
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let item = state.items.pop_front();
        drop(state);
        self.0.not_full.notify_one();
        item
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        lock(&self.0.state).sender_alive = false;
        self.0.not_empty.notify_all();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        lock(&self.0.state).receiver_alive = false;
        self.0.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn every_item_reaches_exactly_one_of_several_consumers() {
        let (tx, rx) = channel::<u32>(4);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || std::iter::from_fn(|| rx.recv()).collect::<Vec<_>>())
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || (0..500).for_each(|i| tx.send(p * 500 + i).unwrap()))
            })
            .collect();
        drop(tx);
        producers.into_iter().for_each(|h| h.join().unwrap());
        let mut got: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn full_queue_blocks_the_sender_and_both_sides_see_disconnects() {
        let (tx, rx) = channel::<u8>(1);
        tx.send(1).unwrap();
        let entered = Arc::new(Barrier::new(2));
        let sender = {
            let (tx, entered) = (tx.clone(), entered.clone());
            std::thread::spawn(move || {
                entered.wait();
                tx.send(2).unwrap(); // returns only once the queue has room
            })
        };
        entered.wait();
        assert_eq!((rx.recv(), rx.recv()), (Some(1), Some(2)));
        sender.join().unwrap();

        tx.send(3).unwrap();
        let abandoned = tx.clone();
        drop(tx);
        assert_eq!(rx.recv(), Some(3));
        abandoned.send(4).unwrap();
        drop(rx);
        assert_eq!(
            abandoned.send(5),
            Err(5),
            "full, no receiver: item handed back"
        );
        let (tx, rx) = channel::<u8>(1);
        drop(tx);
        assert_eq!(rx.recv(), None, "empty, no sender");
    }
}
