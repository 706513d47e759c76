//! Dropping a server: with plans in flight, idle, or fresh.
//!
//! The drop closes the queues, lets the lead (global rank 0) drain and hand
//! out everything already queued, and waits for the rank threads to finish
//! what they posted before it collects their resident body. Every ticket
//! issued before the drop therefore completes, byte-exact, and the drop
//! returns — also when the lead sleeps on the queue, or has not started.
//! The server is used directly: a `bgp-svc` communicator or ticket keeps
//! its service alive, so that service could not be dropped here.

use std::thread;
use std::time::Duration;

use bgp_sched::CollectiveServer;

mod common;
use common::{payload, within};

/// Two tenants put 8 x 512 KiB broadcasts and 8 x 64 Ki-double allreduces
/// each in flight on a 2 x 2 server, which is then dropped.
#[test]
fn dropping_a_server_with_plans_in_flight_completes_every_ticket() {
    const LEN: usize = 512 << 10;
    const COUNT: usize = 64 << 10;
    // Member `g`'s input; integer-valued, so every order of summation is
    // exact.
    let input = |op: usize, g: usize| -> Vec<f64> {
        (0..COUNT)
            .map(|i| ((i + op) % 1000 + g * 1000) as f64)
            .collect()
    };
    let (bcasts, reduces, in_flight) = within(20, move || {
        let server = CollectiveServer::new(2, 2);
        let tenants = [server.add_tenant(1), server.add_tenant(3)];
        let (mut bcasts, mut reduces) = (Vec::new(), Vec::new());
        for i in 0..8 {
            for (k, &tenant) in tenants.iter().enumerate() {
                let op = 2 * i + k;
                let sent = payload(op, LEN);
                let b = server.submit_bcast_as(tenant, &[0, 1], i % 2, k, sent);
                bcasts.push((b.unwrap(), op));
                let inputs = (0..4).map(|g| input(op, g)).collect();
                let r = server.submit_allreduce_as(tenant, &[0, 1], inputs);
                reduces.push((r.unwrap(), op));
            }
        }
        let in_flight = bcasts.iter().filter(|(t, _)| !t.is_done()).count()
            + reduces.iter().filter(|(t, _)| !t.is_done()).count();
        drop(server);
        assert!(bcasts.iter().all(|(t, _)| t.is_done()));
        assert!(reduces.iter().all(|(t, _)| t.is_done()));
        (bcasts, reduces, in_flight)
    });
    assert!(
        in_flight > 0,
        "every op finished before the drop: it proved nothing"
    );
    for (t, op) in bcasts {
        let sent = payload(op, LEN);
        assert!(
            t.wait().iter().all(|m| *m == sent),
            "bcast {op} arrived wrong"
        );
    }
    for (t, op) in reduces {
        let want: Vec<f64> = (0..COUNT)
            .map(|i| (4 * ((i + op) % 1000) + 6000) as f64)
            .collect();
        assert!(
            t.wait().iter().all(|m| *m == want),
            "allreduce {op} summed wrong"
        );
    }
}

/// After 200 ms of quiet every rank of a 2 x 2 server has parked, the lead
/// on the queue: the drop's close must wake it.
#[test]
fn dropping_an_idle_server_wakes_its_parked_lead() {
    within(10, || {
        let server = CollectiveServer::new(2, 2);
        let sent = payload(1, 64);
        let t = server.submit_bcast(&[0, 1], 1, 1, sent.clone()).unwrap();
        assert_eq!(t.wait(), vec![sent; 4]);
        thread::sleep(Duration::from_millis(200));
        drop(server);
    });
}

/// A server dropped as soon as it is built — its rank threads may not
/// have entered their resident body yet — still returns.
#[test]
fn dropping_a_server_right_after_construction_returns() {
    within(10, || {
        for (m, n) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            for _ in 0..5 {
                drop(CollectiveServer::new(m, n));
            }
        }
    });
}
