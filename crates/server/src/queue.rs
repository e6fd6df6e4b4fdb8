//! An unbounded multi-producer multi-consumer queue.
//!
//! `std::sync::mpsc` has one consumer; the event loops' job queue feeds a
//! pool of workers sharing one receiver, so it uses this instead. Each half
//! is handed out in an `Arc`, which does the counting: `recv` returns
//! `None` once the queue is empty and the last sender handle is gone (that
//! is how the worker pool drains without a poison message), and `send`
//! hands the item back once the last receiver handle is.

use mws_obs::sync::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
}

/// The sending half; `send` never blocks. Producers share it behind an
/// `Arc`.
pub(crate) struct Sender<T>(Arc<Shared<T>>);

/// The receiving half. Consumers share it behind an `Arc` and compete for
/// items.
pub(crate) struct Receiver<T>(Arc<Shared<T>>);

/// A new, empty queue.
pub(crate) fn channel<T>() -> (Arc<Sender<T>>, Arc<Receiver<T>>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            items: VecDeque::new(),
            sender_alive: true,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
    });
    (Arc::new(Sender(shared.clone())), Arc::new(Receiver(shared)))
}

impl<T> Sender<T> {
    pub(crate) fn send(&self, item: T) -> Result<(), T> {
        let mut state = lock(&self.0.state);
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
        state.items.pop_front()
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_reaches_exactly_one_of_several_consumers() {
        let (tx, rx) = channel::<u32>();
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
    fn both_sides_see_disconnects() {
        let (tx, rx) = channel::<u8>();
        tx.send(3).unwrap();
        let abandoned = tx.clone();
        drop(tx);
        assert_eq!(rx.recv(), Some(3));
        abandoned.send(4).unwrap();
        drop(rx);
        assert_eq!(abandoned.send(5), Err(5), "no receiver: item handed back");
        let (tx, rx) = channel::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), None, "empty, no sender");
    }
}
