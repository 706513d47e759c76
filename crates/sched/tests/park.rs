//! The server's threads park when there is nothing to do, and a parked
//! ticket waiter always wakes.
//!
//! An idle rank thread polls for a moment, then blocks: the lead (global
//! rank 0, which drains the tenant queues itself) on the queue, every other
//! rank on its plan channel; a waiter that outlasts its spin parks on the
//! op's completion board until the last result lands. The service has no
//! thread but its rank threads. The idle check reads the CPU time the
//! kernel charged to them; the wake stress parks and wakes thousands of
//! waiters under a deadline, so a lost wake-up fails in seconds instead of
//! hanging.

use std::fs;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use bgp_sched::CollectiveServer;

mod common;
use common::{payload, within};

/// The idle check reads every service thread in the process, so the tests
/// of this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Clock ticks per second of the times in `/proc/*/stat` (`USER_HZ`).
const TICKS_PER_S: u64 = 100;

/// `(threads, ticks)`: how many rank threads this process has, and the CPU
/// time (utime + stime) they have used, in clock ticks.
fn service_cpu() -> (usize, u64) {
    let (mut threads, mut ticks) = (0, 0);
    for task in fs::read_dir("/proc/self/task").expect("procfs") {
        // A thread may exit between the listing and the read.
        let Ok(stat) = fs::read_to_string(task.expect("task entry").path().join("stat")) else {
            continue;
        };
        // `tid (comm) state ...`; the kernel cuts comm to 15 bytes.
        let (head, rest) = stat.rsplit_once(')').expect("stat has a comm");
        let comm = &head[head.find('(').expect("stat has a comm") + 1..];
        if !(comm.starts_with("bgp-node") && comm.contains("-rank")) {
            continue;
        }
        // Fields 14 and 15 of stat; `rest` starts at field 3.
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| fields[i - 3].parse::<u64>().expect("a tick count");
        threads += 1;
        ticks += field(14) + field(15);
    }
    (threads, ticks)
}

/// After 1 000 ops on an `m` x `n` server and 200 ms of quiet, its rank
/// threads — the only threads it has — use less than 5 ms of CPU over a
/// further 200 ms: every member parks in its channel and the lead on the
/// queue.
fn parks_every_thread(m: usize, n: usize) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = CollectiveServer::new(m, n);
    let group: Vec<usize> = (0..n).collect();
    for burst in 0..100 {
        let tickets: Vec<_> = (0..10)
            .map(|i| {
                let sent = payload(burst * 10 + i, 64);
                let t = server.submit_bcast(&group, i % m, i % n, sent.clone());
                (t.unwrap(), sent)
            })
            .collect();
        for (t, sent) in tickets {
            assert_eq!(t.wait(), vec![sent; m * n]);
        }
    }
    thread::sleep(Duration::from_millis(200));
    let (threads, before) = service_cpu();
    thread::sleep(Duration::from_millis(200));
    let (_, after) = service_cpu();
    assert_eq!(threads, m * n, "one thread per rank and no other");
    let used_ms = (after - before) * 1000 / TICKS_PER_S;
    assert!(
        used_ms < 5,
        "an idle {m} x {n} service used {used_ms} ms of CPU in 200 ms"
    );
}

#[test]
fn an_idle_service_parks_every_thread() {
    parks_every_thread(2, 1);
}

#[test]
fn an_idle_2x2_service_parks_every_thread() {
    parks_every_thread(2, 2);
}

/// Four clients run 2 000 depth-1 ops of 8-64 bytes each while a 4 MiB
/// broadcast — far longer than any waiter spins — is waited on, so its
/// waiter parks; every op completes, byte-exact, before the deadline.
#[test]
fn a_parked_waiter_always_wakes() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    within(60, || {
        let server = Arc::new(CollectiveServer::new(2, 2));
        let clients: Vec<_> = (0..4usize)
            .map(|c| {
                let server = server.clone();
                thread::spawn(move || {
                    for i in 0..2000 {
                        let sent = payload(c * 2000 + i, 8 + (i * 7 + c) % 57);
                        let t = server.submit_bcast(&[0, 1], i % 2, c % 2, sent.clone());
                        assert_eq!(t.unwrap().wait(), vec![sent; 4], "client {c} op {i}");
                    }
                })
            })
            .collect();
        let big = payload(9, 4 << 20);
        let got = server
            .submit_bcast(&[0, 1], 1, 0, big.clone())
            .unwrap()
            .wait();
        assert!(got.iter().all(|m| *m == big), "the 4 MiB op arrived wrong");
        for c in clients {
            c.join().expect("a client failed");
        }
    });
}
