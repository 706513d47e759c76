//! Helpers shared by the integration tests that run a wedge-prone scenario
//! under a deadline.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// Run `body` on a helper thread and return what it returns, or fail after
/// `secs` seconds instead of hanging — leaking whatever the helper holds,
/// the rank threads of a wedged cluster included.
pub fn within<R: Send + 'static>(secs: u64, body: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let helper = thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Err(RecvTimeoutError::Timeout) => panic!("wedged: not done within {secs} s"),
        sent => match helper.join() {
            Ok(()) => sent.expect("the helper sent its result"),
            Err(panic) => std::panic::resume_unwind(panic),
        },
    }
}

/// Payload `seed`: `len` bytes no other seed shares.
pub fn payload(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 7) % 251) as u8)
        .collect()
}
