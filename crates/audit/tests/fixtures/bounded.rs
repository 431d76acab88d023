//! Fixture: rule `bounded-channels`. Never compiled — read by tests.

use flume::{bounded, unbounded};

pub fn wires(n: usize) {
    let (_tx_ok, _rx_ok) = bounded::<u8>(n.max(1));
    let (_tx_bad, _rx_bad) = unbounded::<u8>();
    // An unbounded() mention in a comment does not count.
    let (_tx_std_ok, _rx_std_ok) = std::sync::mpsc::sync_channel::<u8>(n.max(1));
    let (_tx_std_bad, _rx_std_bad) = std::sync::mpsc::channel::<u8>();
    let (_tx_call, _rx_call): (std::sync::mpsc::Sender<u8>, _) = channel ();
    // Nor does a channel() mention in a comment.
}
